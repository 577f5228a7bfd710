"""The checks that guard results raise, so they still run under python -O.

Each check is broken on purpose in a child interpreter started with -O,
which strips every assert: a check that were still an assert would let the
wrong value through and the child would print "passed" instead.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SCRIPT = r'''
import sys
if __debug__:
    sys.exit("asserts are on: run with -O")
from syzlab import betti, koszul, linalg, monomials, schur
from syzlab.koszul import KoszulCell, Parameters


def flat_faces(wedge):
    # the Koszul differential with every sign +1: d_out . d_in no longer vanishes
    return [(i, wedge[:j] + wedge[j + 1:], 1) for j, i in enumerate(wedge)]


def too_large_ranks(block, config, in_ranks, out_ranks):
    return block.mid_dim, 1, True, True


def one_above(m, modulus):
    return linalg.rank_exact(m) + 1


def weyl_plus_one(lam, m):
    return WEYL(lam, m) + 1


def no_check(size):
    pass


def block_333():
    return KoszulCell(Parameters(2, 0, 3, 2, 1)).block((3, 3, 3))


WEYL = schur.weyl_dim
TENSORS = monomials.enumerate_basis(1, 0)     # the source tensors of (1, 0, 2, 1, 1)
cases = {
    # the cell's check on one wedge per size trips first; with it off, the
    # quotient's matrices are checked on their own (no curve's quotient has
    # a composite for flat signs to spoil, so this block is a surface's; the
    # quotient of (2, 0, 2, 2, 1) at (2, 2, 2) by the stars of x^2, y^2 and
    # z^2 has no target left, so it is one of degree 3)
    "faces_of_faces": ([(koszul, "_faces", flat_faces)], block_333),
    # on a curve the cell's check is the only one a sign error can trip
    "curve_faces_of_faces": ([(koszul, "_faces", flat_faces)],
                             lambda: KoszulCell(Parameters(1, 0, 3, 2, 1))),
    "composition": ([(koszul, "_faces", flat_faces),
                     (koszul, "_check_faces_of_faces", no_check)], block_333),
    "rank_sum": ([(betti, "_block_ranks", too_large_ranks)],
                 lambda: betti.cell_result(1, 0, 2, 1, 1, betti.make_config())),
    # every quotient map of (1, 0, 2, 1, 1) has no entries and is never
    # eliminated; (1, 0, 3, 1, 1) has one 2x1 map on the exact route
    "modular_le_exact": ([(linalg, "_rank_mod", one_above)],
                         lambda: betti.cell_result(1, 0, 3, 1, 1, betti.make_config())),
    # the grouping loses elements: the orbits no longer fill the space
    "orbit_total": ([(TENSORS, "monomials", TENSORS.monomials[:-1])],
                    lambda: KoszulCell(Parameters(1, 0, 2, 1, 1)).weights()),
    "schur_recomposition": ([(schur, "weyl_dim", weyl_plus_one)],
                            lambda: schur.schur_multiplicities(2, 0, 2, 1, 1)),
}
for name, (patches, run) in cases.items():
    goods = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, broken in patches:
        setattr(module, attr, broken)
    try:
        run()
        print(name, "passed")
    except Exception as exc:
        print(name, type(exc).__name__, exc)
    finally:
        for module, attr, good in goods:
            setattr(module, attr, good)
'''


def test_result_guards_hold_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert lines["faces_of_faces"].startswith(
        "InvariantError d_out . d_in != 0 on the wedges of size 3")
    assert lines["curve_faces_of_faces"].startswith(
        "InvariantError d_out . d_in != 0 on the wedges of size 3")
    assert lines["composition"].startswith(
        "InvariantError d_out . d_in != 0 at weight (3, 3, 3)")
    assert lines["rank_sum"].startswith("InvariantError ranks")
    assert lines["modular_le_exact"].startswith("InvariantError rank mod ")
    assert lines["orbit_total"].startswith("InvariantError orbit total ")
    assert lines["schur_recomposition"].startswith("SchurSolveError irreducibles recompose")
