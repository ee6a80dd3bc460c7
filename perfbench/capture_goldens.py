"""Record the exit code and stdout digest of every CLI menu entry.

    python3 perfbench/capture_goldens.py

Run from the root of a checkout whose CLI output is the reference; the
``cli`` workload compares every later invocation byte for byte against
``perfbench/cli_goldens.json``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import CLI_MENU, GOLDENS, menu_key, run_cli  # noqa: E402


def main() -> int:
    goldens = {}
    for argv in CLI_MENU:
        out = run_cli(argv)
        goldens[menu_key(argv)] = {k: out[k] for k in ("code", "bytes", "sha256")}
        print(f"{out['code']} {out['bytes']:>7} {menu_key(argv)}")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
