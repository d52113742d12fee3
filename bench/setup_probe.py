"""Set-up probe: a fresh interpreter imports quivpush.cli and parses the
workload's inputs, which every CLI invocation pays before it verifies.

    python3 bench/setup_probe.py SRC MANIFEST

MANIFEST is a JSON list of CLI argv lists.  The parent process times this
script from spawn to exit.
"""

import json
import sys


def main(src, manifest):
    sys.path.insert(0, src)
    from quivpush import cli, jsonio

    with open(manifest, encoding="utf-8") as fh:
        argvs = json.load(fh)
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        for attr in ("hom", "left", "right"):
            path = getattr(args, attr, None)
            if path is not None:
                jsonio.load_hom(path)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
