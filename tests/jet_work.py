"""Count the jet work a call does: programs compiled, trees folded, jet products,
inversions, diff calls.

The jet-count guards bound these counts for one point, or for one job.  Every
jet the package builds from a tree comes from a run of a compiled
``heavenly.jetcore.Program`` (``jet_of``, ``jets_of``, ``ScalarField.jet``,
``field_jets`` and the callers that compile once per job all call
``Program.jets``), so wrapping that method on the class sees every fold,
whoever holds the program.  Compiling is counted on ``Program.__init__``.
Products and inversions are counted on ``Jet`` itself, so they include the
ring operations of the folds and of everything done with the jets afterwards.
A jet keeps its reciprocal, so ``Jet.reciprocal`` calls include cache hits;
the inversions counted are those computed (``Jet._invert``).  Symbolic
differentiation is counted as ``jetcore.diff`` calls, wrapped at every
binding site; ``diff`` recurses through its module's name, so each node it
differentiates counts.
"""

from __future__ import annotations

import sys
from collections import Counter

from heavenly import jetcore
from heavenly.jetcore import Jet, Program


class JetWork:
    def __init__(self, monkeypatch):
        # (point, tree, order) of every tree of every program run to jets; equal
        # trees in one program share its instructions, so they count once per run
        self.runs: list = []
        self.compiles = 0
        self.products = 0
        self.inversions = 0
        self.diff_calls = 0
        real_init, real_jets = Program.__init__, Program.jets
        real_mul, real_invert, real_diff = Jet.__mul__, Jet._invert, jetcore.diff

        def init(program, exprs, chart=None):
            self.compiles += 1
            real_init(program, exprs, chart)

        def jets(program, p, order=jetcore.DEFAULT_ORDER, params=None):
            self.runs += [(p, e, order) for e in dict.fromkeys(program.exprs)]
            return real_jets(program, p, order, params)

        def mul(a, b):
            self.products += 1
            return real_mul(a, b)

        def invert(a):
            self.inversions += 1
            return real_invert(a)

        def diff(e, var):
            self.diff_calls += 1
            return real_diff(e, var)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "heavenly" and getattr(module, "diff", None) is real_diff:
                monkeypatch.setattr(module, "diff", diff)
        monkeypatch.setattr(Program, "__init__", init)
        monkeypatch.setattr(Program, "jets", jets)
        monkeypatch.setattr(Jet, "__mul__", mul)
        monkeypatch.setattr(Jet, "_invert", invert)

    @property
    def folds(self) -> Counter:
        """(point, tree) -> the number of program runs that folded it, at any order."""
        return Counter((p, e) for p, e, _ in self.runs)

    @property
    def fold_count(self) -> int:
        """Distinct trees folded, summed over the program runs."""
        return len(self.runs)

    @property
    def most_folds_of_one_tree(self) -> int:
        """The largest number of program runs that folded one tree at one point.

        The order is not part of the key: a tree folded at order 3 and again at
        order 2 counts twice, though the order-3 jet holds the order-2 one.
        """
        return max(self.folds.values(), default=0)

    @property
    def points(self) -> int:
        """The points at which some program ran."""
        return len({p for p, _, _ in self.runs})
