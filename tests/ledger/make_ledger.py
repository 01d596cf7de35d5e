"""Write the console-output ledger: what ``spinaxes`` prints for a fixed set of commands.

``tests/test_ledger.py`` reruns the same commands in process through :func:`spinaxes.cli.main` and compares
their output with the files here. A change that means to alter console output regenerates them from the
repository root with

    PYTHONPATH=src python tests/ledger/make_ledger.py

and lists the changed files in CHANGES.md.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from spinaxes import cli

LEDGER_DIR = Path(__file__).resolve().parent

# the README sweep grid, and the two states the CI workflow makes and analyzes
SWEEP = ["sweep", "--p", "0:1:21", "--theta", "0deg:180deg:37"]
SELFCHECKS = {
    "selfcheck_trials50.txt": ["selfcheck", "--seed", "42", "--trials", "50"],
    "selfcheck_trials0.txt": ["selfcheck", "--seed", "42", "--trials", "0"],
    "selfcheck_tau_fault.txt": ["selfcheck", "--seed", "42", "--trials", "5", "--inject-fault", "tau-norm"],
}
STATES = {
    "mixed": ["make-state", "mixed", "--p", "0.6", "--theta", "40deg"],
    "pure": ["make-state", "pure", "--theta", "50deg"],
}


def run(argv) -> str:
    """What cli.main(argv) writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def render(workdir) -> dict:
    """{ledger file name: text} of every command, the files the commands write placed under workdir."""
    workdir = Path(workdir)
    texts = {}
    run(SWEEP + ["--out", str(workdir / "sweep.csv")])
    texts["sweep_readme.csv"] = (workdir / "sweep.csv").read_text(encoding="utf-8")
    for name, argv in SELFCHECKS.items():
        texts[name] = run(argv)
    for name, argv in STATES.items():
        state = str(workdir / f"{name}.txt")
        run(argv + ["--out", state])
        texts[f"analyze_{name}.txt"] = run(["analyze", state])
        texts[f"analyze_{name}.json"] = run(["analyze", "--json", state])
    return texts


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in render(workdir).items():
            (LEDGER_DIR / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
