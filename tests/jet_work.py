"""Count the jet work a call does: programs built, outputs folded, jet products,
inversions, diff calls.

The jet-count guards bound these counts for one point, or for one job.  Every
jet the package builds from a tree or a coefficient table comes from a run of
a ``heavenly.jetcore.Program`` (``jet_of``, ``jets_of``, ``ScalarField.jet``,
``field_jets`` and the callers that build one program per job all call
``Program.jets``), so wrapping that method on the class sees every fold,
whoever holds the program.  An output is known by its printed text, which is
the same for equal trees in any program and for a table-emitted output and
its tree.  Building a program is counted on ``Program.__init__``.
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
        # (point, output text, order) of every output of every program run to jets;
        # equal outputs of one program share its instructions, so they count once per run
        self.runs: list = []
        self.compiles = 0
        self.program_runs = 0
        self.products = 0
        self.inversions = 0
        self.diff_calls = 0
        real_init, real_jets = Program.__init__, Program.jets
        real_mul, real_invert, real_diff = Jet.__mul__, Jet._invert, jetcore.diff

        def init(program, outputs, chart=None):
            self.compiles += 1
            real_init(program, outputs, chart)

        def jets(program, p, order=jetcore.DEFAULT_ORDER, params=None):
            self.program_runs += 1
            self.runs += [(p, text, order) for text in dict.fromkeys(program.texts())]
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
        """(point, output text) -> the number of program runs that folded it, at any order."""
        return Counter((p, e) for p, e, _ in self.runs)

    @property
    def fold_count(self) -> int:
        """Distinct outputs folded, summed over the program runs."""
        return len(self.runs)

    @property
    def most_folds_of_one_tree(self) -> int:
        """The largest number of program runs that folded one output at one point.

        The order is not part of the key: an output folded at order 3 and again at
        order 2 counts twice, though the order-3 jet holds the order-2 one.
        """
        return max(self.folds.values(), default=0)

    @property
    def points(self) -> int:
        """The points at which some program ran."""
        return len({p for p, _, _ in self.runs})
