"""Digest the acceptance invocations of a tree, one line each.

    python tools/acceptance_digests.py [TREE]

Runs every invocation below as `python -m tricavity.cli ...` in a fresh
interpreter, with `PYTHONPATH=TREE/src` and `OMP_NUM_THREADS=1`, one after
the other, and prints per invocation the sha256 of its stdout, the sha256 of
its stderr, its exit code and its arguments. TREE defaults to the tree that
holds this script. Two trees print byte-identical output exactly when
`diff` of their two listings is empty. It is a script, not a test: the
comparison needs a second tree, and a run starts 54 interpreters (about
25 s on a 2-core x86-64 VM).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

INVOCATIONS = (
    "sweep",
    "sweep --mu 0:2:21 --rwa",
    "sweep --atom-config xi --mu 0:2:21 --omega1 0.2 --omega3 1.4",
    "sweep --atom-config lambda --mu 0:2:21 --rwa --n-atoms 3",
    "sweep --mu 1.2 --theta 0:1.5:11",
    "sweep --mu 1.5 --n-atoms 4,8,12 --branch exact",
    "sweep --mu 0.2:1.8:9 --omega2 0.9 --n-atoms 3 --branch exact,even,odd",
    "sweep --format json --mu 0:2:11 --outputs energy,photons,populations,m,q,entropy,distribution",
    "sweep --branch exact --mu 3 --theta 0.8 --n-atoms 40",
    "sweep --mu 1.5 --n-atoms 1,2,4,8,16,32,64 --branch even,odd",
    "sweep --mu 0 --branch odd,exact --outputs q --na X",
    "sweep --mu 1.2:1.6:3 --branch exact,coherent --outputs energy,distribution --nu-max 40",
    "sweep --mu 0:2:21 --jobs 2",
    "photon-dist --mu 3 --branch exact,even,odd,coherent",
    "photon-dist --mu 3 --fit",
    "phase-boundary",
    "phase-boundary --rwa",
    "phase-boundary --atom-config xi --theta 0.3",
    "spectrum --mu 1",
    "spectrum --atom-config xi --rwa --k 10",
    "validate --level fast",
    "validate --level full",
    "sweep --branch exact --n-atoms 1 --mu 70",
    "sweep --branch exact --mu 1.2 --nu-max 5 --n-atoms 1,2",
    "photon-dist --atom-config xi --mu 1.4 --omega1 0.1 --n-atoms 3 --branch exact",
    "sweep --atom-config lambda --rwa --mu 0.4 --theta 0.8 --n-atoms 2,6,10 --branch exact",
    "sweep --atom-config xi --mu 1.5 --theta 0.8 --n-atoms 2,5,8,10 --branch exact",
    "sweep --branch exact --mu 1.5 --theta 0.8 --omega2 0.9 --n-atoms 6,8",
    # Failure paths: exit 2 for bad input, 3 for a numerical failure.
    "sweep --mu 0:1:3 --theta 0:1:3",
    "phase-boundary --mu 1",
    "phase-boundary --mu 0:1e160",
    "photon-dist --mu 1e160 --nu-max 5",
    "sweep --mu 1 --branch coherent --out /nonexistent/dir/x.csv",
    "sweep --branch exact --n-atoms 1 --mu 70:40:4",
    "sweep --branch coherent,even,odd --mu 1e100",
    # Reducible blocks: 726 one-state blocks at mu = 0, with degenerate
    # copies; a block above fock.DENSE_CUTOFF solved dense because 16 k >= n.
    "spectrum --mu 0",
    "spectrum --mu 1 --n-atoms 1 --nu-max 200 --k 400",
    # A SACS second photon moment past the float range; an --out whose
    # parent is a regular file; a wide-band (about 41) full-space block.
    "sweep --branch even --mu 7.7e76 --outputs photons,distribution,m",
    "sweep --mu 0:1:3 --branch coherent --out README.md/x.csv",
    "sweep --branch exact --mu 1.5 --theta 0.8 --omega2 0.9 --n-atoms 10",
    # A strong-coupling seed cutoff (nu_max 6539) whose basis fits, one
    # whose basis does not (nothing solved), and a serial sweep stopped
    # at that refusal.
    "sweep --branch exact --mu 12 --theta 0.8 --n-atoms 40",
    "sweep --branch exact --n-atoms 1 --mu 600",
    "sweep --branch exact --n-atoms 1 --mu 600:40:2",
    # Imports on use: the version line alone, scipy.special for the
    # Poisson terms, and fock imported before a --jobs pool starts.
    "--version",
    "photon-dist --mu 1.5 --branch coherent,even,odd",
    "sweep --mu 1.2:1.6:3 --branch exact,coherent --n-atoms 3 --jobs 2",
    # A clustered weak-coupling spectrum that plain Lanczos gave up on
    # (exit 3) and shift-invert solves, and a --jobs sweep stopped at its
    # first failing point as the serial one is.
    "spectrum --mu 0.0001 --n-atoms 3",
    "sweep --branch exact --n-atoms 1 --mu 600:100:6 --jobs 2",
    # An RWA sweep of many M blocks, most skipped by their Gershgorin bound,
    # and spectra whose large components are solved by shift-invert.
    "sweep --branch exact --rwa --atom-config xi --mu 0.35 --n-atoms 2,6,10",
    "spectrum --mu 1.2 --n-atoms 6 --atom-config lambda",
    "spectrum --mu 1 --nu-max 200 --n-atoms 6",
    # Plain Lanczos: ground sectors of band 131 > fock.BANDED_WIDTH, and
    # spectrum components wider than nu_max / 2. A seed cutoff at the basis
    # edge whose delta (a few ulp of E) is certified by the solver floor.
    "sweep --branch exact --mu 1.5 --theta 0.8 --omega2 0.9 --n-atoms 20",
    "spectrum --mu 1 --n-atoms 14 --nu-max 40",
    "sweep --branch exact --n-atoms 1 --mu 490",
)


def digest(tree: Path, args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "tricavity.cli", *args.split()],
        capture_output=True, cwd=tree, env=env, check=False,
    )
    out, err = (hashlib.sha256(data).hexdigest() for data in (proc.stdout, proc.stderr))
    return f"{out} {err} {proc.returncode} {args}"


def main() -> None:
    tree = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    for args in INVOCATIONS:
        print(digest(tree, args), flush=True)


if __name__ == "__main__":
    main()
