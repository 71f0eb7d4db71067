"""The inputs that several test modules share, each defined once: the paper's
reference point, the pinned stdout of the README's examples, and an
in-process CLI run.

The reference point is v_noncoop 0.5, v_coop 0.75, p 0.8 and q 0.1, with
r 0.5 where a run needs one. A deliberate change to a README example's
bytes is made here, in one constant.
"""

import contextlib
import io
from fractions import Fraction

from dispositions_sim.cli import main
from dispositions_sim.core import TranslucencyParams, TranslucentPayoffs
from dispositions_sim.encounter import EncounterConfig

REFERENCE_FLAGS = ["--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0.1"]

# The reference point (v_noncoop, v_coop, p, q, r) as the decimals it is written
# in, exactly: the doubles of 0.8 and 0.1 are not 4/5 and 1/10.
REFERENCE_DECIMALS = tuple(Fraction(x) for x in ("0.5", "0.75", "0.8", "0.1", "0.5"))

# stdout of ``analytic *REFERENCE_FLAGS --r 0.5``.
README_ANALYTIC = (
    '{"eu_cm": 0.575, "eu_sm": 0.525, "margin": 0.04999999999999993, '
    '"critical_ratio": 4.0, "cm_rational": true}\n'
)

# stdout of ``sweep *REFERENCE_FLAGS --axis r=0.25:0.75:3``.
README_SWEEP = (
    "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational\n"
    "0.80000000000000004,0.10000000000000001,0.25,0.5,0.75,0.51250000000000007,"
    "0.51249999999999996,1.1102230246251565e-16,8,true\n"
    "0.80000000000000004,0.10000000000000001,0.5,0.5,0.75,0.57499999999999996,"
    "0.52500000000000002,0.049999999999999933,4,true\n"
    "0.80000000000000004,0.10000000000000001,0.75,0.5,0.75,0.63750000000000007,"
    "0.53749999999999998,0.10000000000000009,2.6666666666666665,true\n"
)


def reference_config(v_nc=0.5, v_c=0.75, p=0.8, q=0.1, r=0.5):
    """The ``EncounterConfig`` of the reference point, with any value replaced."""
    return EncounterConfig(
        payoffs=TranslucentPayoffs(v_nc, v_c),
        params=TranslucencyParams(p=p, q=q, r=r),
    )


def run_main(argv):
    """(exit code, stdout, stderr) of an in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
