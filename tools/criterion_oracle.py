"""Check the criterion decider against the definition decider on every
one-generator group representation of GL4(F2), at m = 1, 2, 3.

Each of the 20,160 invertible 4 x 4 matrices over F2 generates a cyclic
group acting on F2^4.  The two deciders run on two fresh representations
of it, so they share no memo, and their verdicts must agree; every
NotThick certificate of the criterion must recheck.  The script prints
the count of each (m, verdict, route) of the criterion and exits 1 on any
disagreement.  Standard library only, with the package on the path:

    PYTHONPATH=src python tools/criterion_oracle.py [--stride K]

`--stride K` checks every K-th matrix only, in enumeration order.
"""

import argparse
import collections
import sys

from thickrep.fields import GF
from thickrep.linalg import Matrix
from thickrep.repcore import (
    GROUP,
    NOT_THICK,
    Representation,
    is_m_thick_criterion,
    is_m_thick_definition,
    verify_not_thick_certificate,
)

F2 = GF(2)


def gl4_f2():
    """The invertible 4 x 4 matrices over F2, in the order of the 16-bit
    numbers whose bit 4i + j is entry (i, j)."""
    for bits in range(1 << 16):
        g = Matrix.from_ints(F2, [[bits >> (4 * i + j) & 1 for j in range(4)] for i in range(4)])
        if g.is_invertible():
            yield g


def check(elements):
    """(counts of (m, verdict, route) of the criterion, disagreements)
    over the one-generator reps of `elements`.  A disagreement is
    (generator rows, m, criterion verdict, definition verdict), and a
    NotThick whose certificate does not recheck is one too."""
    counts = collections.Counter()
    bad = []
    for g in elements:
        crit_rep = Representation(F2, 4, GROUP, [g])
        defn_rep = Representation(F2, 4, GROUP, [g])
        for m in (1, 2, 3):
            crit = is_m_thick_criterion(crit_rep, m)
            defn = is_m_thick_definition(defn_rep, m)
            counts[m, crit.verdict, crit.route] += 1
            if crit.verdict != defn.verdict or (
                    crit.verdict == NOT_THICK
                    and not verify_not_thick_certificate(crit_rep, crit.certificate)):
                bad.append((g.rows, m, crit.verdict, defn.verdict))
    return counts, bad


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stride", type=int, default=1)
    args = parser.parse_args(argv)
    if args.stride < 1:
        parser.error("--stride must be positive")
    elements = list(gl4_f2())[::args.stride]
    counts, bad = check(elements)
    print("%d generators, %d decisions" % (len(elements), sum(counts.values())))
    for (m, verdict, route), count in sorted(counts.items()):
        print("m=%d %-8s %-8s %6d" % (m, verdict, route, count))
    for rows, m, crit, defn in bad:
        print("DISAGREE m=%d criterion %s definition %s: %r" % (m, crit, defn, rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
