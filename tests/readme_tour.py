"""The shell lines of README.md's command-line tour, as one bash script.

The tour is every ```sh block of the "## Command line" section, in order;
its examples write the files they read, so the script runs as written in an
empty directory.  Printed as a script, it runs the installed `sfuncs`:

    python3 tests/readme_tour.py > tour.sh && cd "$(mktemp -d)" && bash -e tour.sh
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour(readme: Path = README) -> str:
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return "".join(re.findall(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S))


if __name__ == "__main__":
    sys.stdout.write(tour())
