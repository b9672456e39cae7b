"""Count the jet work a call does: trees folded, jet products, inversions, diff calls.

The jet-count guards bound these counts for one point.  Every jet the package
builds from a tree goes through ``heavenly.jetcore.jets_of`` (``jet_of``,
``ScalarField.jet`` and ``field_jets`` all call it), so wrapping it at each
binding site sees every fold, whichever name the caller imported.  Products
and inversions are counted on ``Jet`` itself, so they include the ring
operations of the folds and of everything done with the jets afterwards.
A jet keeps its reciprocal, so ``Jet.reciprocal`` calls include cache hits;
the inversions counted are those computed (``Jet._invert``).  Symbolic
differentiation is counted as ``jetcore.diff`` calls, wrapped at every
binding site in the same way; ``diff`` recurses through its module's name,
so each node it differentiates counts.
"""

from __future__ import annotations

import sys
from collections import Counter

from heavenly import jetcore
from heavenly.jetcore import Jet


class JetWork:
    def __init__(self, monkeypatch):
        # (point, tree) -> number of jets_of calls that folded it, at any order;
        # equal trees in one call share its memo, so they count once
        self.folds: Counter = Counter()
        self.products = 0
        self.inversions = 0
        self.diff_calls = 0
        real_jets_of, real_mul, real_invert = jetcore.jets_of, Jet.__mul__, Jet._invert
        real_diff = jetcore.diff

        def jets_of(exprs, p, order=jetcore.DEFAULT_ORDER, params=None):
            self.folds.update({(p, e) for e in exprs})
            return real_jets_of(exprs, p, order, params)

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
            if name.split(".")[0] != "heavenly":
                continue
            for attr, real, counted in (("jets_of", real_jets_of, jets_of),
                                        ("diff", real_diff, diff)):
                if getattr(module, attr, None) is real:
                    monkeypatch.setattr(module, attr, counted)
        monkeypatch.setattr(Jet, "__mul__", mul)
        monkeypatch.setattr(Jet, "_invert", invert)

    @property
    def fold_count(self) -> int:
        """Distinct trees folded, summed over the jets_of calls."""
        return sum(self.folds.values())

    @property
    def most_folds_of_one_tree(self) -> int:
        """The largest number of jets_of calls that folded one tree at one point.

        The order is not part of the key: a tree folded at order 3 and again at
        order 2 counts twice, though the order-3 jet holds the order-2 one.
        """
        return max(self.folds.values(), default=0)
