"""Write the golden artifacts of ``tests/test_golden.py``.

    python tests/golden/regenerate.py           # overwrite the goldens here
    python tests/golden/regenerate.py --check   # regenerate elsewhere and diff

The runs, overrides and artifacts are the ones ``tests/test_golden.py``
compares, imported from it. ``--check`` writes into a temporary directory
and exits 1, naming the files, if any differs from the committed golden, so
a golden edited by hand is caught. Regenerate only on a commit whose
numbers are known to be right, and record the provenance in the README
here.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path[:0] = [str(GOLDEN.parents[1] / "src"), str(GOLDEN.parent)]

from test_golden import (  # noqa: E402
    CHECKPOINTS,
    HISTORIES,
    make_checkpoints,
    make_history,
    make_reports,
)


def regenerate(dest: Path, work: Path) -> list[str]:
    """Write every golden into ``dest``, running in ``work``; their names."""
    artifacts = {
        name: make_history(overrides, work / f"history_{i}")
        for i, (name, overrides) in enumerate(HISTORIES)
    }
    for i, (overrides, names) in enumerate(CHECKPOINTS):
        artifacts.update(make_checkpoints(overrides, names, work / f"checkpoints_{i}"))
    artifacts.update(make_reports(work / "reports"))
    for name, path in artifacts.items():
        shutil.copyfile(path, dest / name)
    return list(artifacts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate into a temporary directory and diff with the goldens",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dest = tmp / "golden" if args.check else GOLDEN
        dest.mkdir(exist_ok=True)
        names = regenerate(dest, tmp / "work")
        if not args.check:
            print(f"wrote {len(names)} goldens to {GOLDEN}")
            return 0
        differ = [
            name for name in names
            if (dest / name).read_bytes() != (GOLDEN / name).read_bytes()
        ]
    for name in differ:
        print(f"differs from the regenerated file: {GOLDEN / name}")
    if differ:
        return 1
    print(f"all {len(names)} goldens match a fresh regeneration")
    return 0


if __name__ == "__main__":
    sys.exit(main())
