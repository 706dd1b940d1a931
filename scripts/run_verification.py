#!/usr/bin/env python3
"""Run the standard verification campaign and the boundary example,
writing both reports to files and exiting nonzero on any failure.

Usage: python scripts/run_verification.py [output_dir] [seed]

Uses the installed leonardz package; without one, it imports the package
from the checkout's src/ directory.
"""

import sys
from pathlib import Path

try:
    import leonardz  # noqa: F401
except ModuleNotFoundError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leonardz.campaign import render_report, run_campaign
from leonardz.counterexample import counterexample_d2
from leonardz.counterexample import render_report as render_counterexample


def main(argv):
    out_dir = Path(argv[1]) if len(argv) > 1 else Path("reports")
    seed = int(argv[2]) if len(argv) > 2 else 7
    out_dir.mkdir(parents=True, exist_ok=True)

    campaign = run_campaign(seed=seed)
    campaign_text = render_report(campaign)
    (out_dir / f"campaign-seed{seed}.txt").write_text(campaign_text)
    print(campaign_text.splitlines()[-1], "->",
          out_dir / f"campaign-seed{seed}.txt")

    example = counterexample_d2()
    example_text = render_counterexample(example)
    (out_dir / "counterexample.txt").write_text(example_text)
    print(example_text.splitlines()[-1], "->", out_dir / "counterexample.txt")

    return 0 if campaign.ok and example.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
