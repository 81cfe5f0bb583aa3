#!/usr/bin/env python3
"""Run every built-in demo and print the reports."""

import argparse
import json

from anosov.corpus import DEMO_NAMES
from anosov.decider import demo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", default=list(DEMO_NAMES))
    args = parser.parse_args()
    for name in args.names:
        print(f"=== {name} ===")
        print(json.dumps(demo(name), indent=2))
        print()


if __name__ == "__main__":
    main()
