#!/usr/bin/env python3
"""Check that the working tree's `src` writes the same bytes as a commit's.

    python tools/same_outputs.py <git-rev>

Unpacks `git archive <git-rev> src` into a temporary directory and runs one
protocol with each `src` on the PYTHONPATH, BLAS threads set to 1:

  - a 30-step BDF2 `fpsi run` of the pressure pulse on channel:16
    (K = 1e-5) with VTK output every 10 steps, the first step's matrix
    dump and a checkpoint of the final state; its LUs are factored at
    steps 1 and 2 and reused after that;
  - a 10-step BDF1 `fpsi run` of the same pulse at K = 5e-13 with no VTK
    output, whose stiff slip term makes the system refactor on every step,
    so the fresh-LU path is compared on every step;
  - a BDF1 `fpsi run` on channel:4 (K = 1e-5) under an inlet pulse of 1e8,
    whose first step inverts a cell: its exit code and stderr, the step
    failure's report, are written to `fail.status` and compared too;
  - `fpsi mms stokes`, `fpsi mms biot` and `fpsi mms time` at their default
    levels;
  - `fpsi config-template`, whose stdout is saved as `config-template.ini`,
    so no default of the run can change unseen.

Every file either side writes is compared byte for byte.  Prints each file
that differs or that only one side wrote, and exits 1 if there is any.
"""

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_CONFIGS = {
    "run": """[run]
scenario = pressure_wave_2d
order = 2
dt = 1e-4
t_end = 3e-3
output_dir = {out}
output_every = 10
checkpoint = final.npz
dump_matrix = {out}/A.mtx
[mesh]
source = channel:16
[material]
K = 1e-5
""",
    "stiff": """[run]
scenario = pressure_wave_2d
order = 1
dt = 1e-4
t_end = 1e-3
output_dir = {out}
output_every = 0
[mesh]
source = channel:16
[material]
K = 5e-13
""",
}
FAILING_CONFIG = """[run]
scenario = pressure_wave_2d
order = 1
dt = 1e-4
t_end = 5e-4
output_dir = {out}
output_every = 0
[mesh]
source = channel:4
[material]
K = 1e-5
[forcing]
p_ext = 1e8
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fpsi(src: Path, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """`fpsi <args>` with the package in `src`; stdout is captured.  With
    check=False a failure does not raise, and stderr is captured too."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    return subprocess.run([sys.executable, "-m", "fpsi.cli", *args], env=env, check=check,
                          stdout=subprocess.PIPE,
                          stderr=None if check else subprocess.PIPE, text=True)


def outputs(src: Path, out: Path) -> dict:
    """Run the protocol with the package in `src`; every file written under
    `out`, by path relative to it, with its bytes."""
    out.mkdir()
    for name, text in RUN_CONFIGS.items():
        config = out.parent / ("%s_%s.ini" % (out.name, name))
        config.write_text(text.format(out=out / name))
        fpsi(src, "run", str(config), "--quiet")
    config = out.parent / ("%s_fail.ini" % out.name)
    config.write_text(FAILING_CONFIG.format(out=out / "fail"))
    failed = fpsi(src, "run", str(config), "--quiet", check=False)
    (out / "fail.status").write_text("exit %d\n%s" % (failed.returncode, failed.stderr))
    for case in ("stokes", "biot", "time"):
        fpsi(src, "mms", case, "--output", str(out / ("mms_" + case)))
    (out / "config-template.ini").write_text(fpsi(src, "config-template").stdout)
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py <git-rev>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        before = outputs(tmp / "rev" / "src", tmp / "before")
        after = outputs(ROOT / "src", tmp / "after")
    differ = sorted(name for name in before.keys() | after.keys()
                    if before.get(name) != after.get(name))
    for name in differ:
        print("differs: %s%s" % (name, "" if name in before and name in after
                                 else " (written by one side only)"))
    print("%d of %d files differ from %s" % (len(differ), len(before.keys() | after.keys()),
                                              argv[0]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
