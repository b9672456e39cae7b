"""Count the jet work a call does: programs built, outputs folded, jet products,
inversions, product kernels compiled, and the curvature core's kernels and
multiplications.

The jet-count guards bound these counts for one point, or for one job.  Every
jet the package builds from a tree or a coefficient table comes from a run of
a ``heavenly.jetcore.Program`` (``jet_of``, ``jets_of``, ``ScalarField.jet``,
``field_program`` and the callers that build one program per job all call
``Program.jets``), so wrapping that method on the class sees every fold,
whoever holds the program.  An output is known by its printed text, which is
the same for equal trees in any program and for a table-emitted output and
its tree.  Building a program is counted on ``Program.__init__``.
Products and inversions are counted on ``Jet`` itself, so they include the
ring operations of the folds and of everything done with the jets afterwards.
A jet keeps its reciprocal, so ``Jet.reciprocal`` calls include cache hits;
the inversions counted are those computed (``Jet._invert``).

What the package keeps for the process (``heavenly.jetcore.kept``: layouts
and their product kernels, the curvature core's kernels, parsed catalogs,
parsed fields with their programs, the st and flat programs) starts empty
for the call, as in a fresh process, and the process's entries come back
after it (:func:`fresh_caches`): every program, layout and kernel a job
needs is built inside the call.  Each build is counted by the kept function's name
(``builds``), a product kernel's compile is recorded as its layout's (nvars,
order), a curvature source compiled by its key, and each call of a curvature
kernel adds the multiplications its code holds (no kernel a finite table
takes branches).
"""

from __future__ import annotations

import ast
from collections import Counter

import heavenly.cli  # noqa: F401 - loads every module that keeps something, so KEPT lists all
from heavenly import curvature, jetcore
from heavenly.jetcore import Jet, Program


def fresh_caches(monkeypatch, builds: Counter | None = None) -> None:
    """Give every kept function an empty store until ``monkeypatch`` undoes it, so what
    is built meanwhile (a monkeypatched builder's result too) is dropped afterwards;
    with ``builds``, count each build by the function's module and name."""
    for fn in jetcore.KEPT:
        monkeypatch.setattr(fn, "store", {})
        if builds is not None:
            def build(*key, real=fn.build, name=f"{fn.__module__}.{fn.__name__}"):
                builds[name] += 1
                return real(*key)
            monkeypatch.setattr(fn, "build", build)


class JetWork:
    def __init__(self, monkeypatch):
        # (point, output text, order) of every output of every program run to jets;
        # equal outputs of one program share its instructions, so they count once per run
        self.runs: list = []
        self.compiles = 0
        self.program_runs = 0
        self.products = 0
        self.inversions = 0
        self.kernels: list[tuple[int, int]] = []
        self.core_kernels: list[tuple] = []
        self.core_products = 0
        self.builds: Counter = Counter()   # module.name of each kept function -> its builds
        fresh_caches(monkeypatch, self.builds)
        real_init, real_jets = Program.__init__, Program.jets
        real_kernel = jetcore._product_kernel
        real_source, real_kernels, core_products = curvature._source, curvature._kernels, {}
        real_mul, real_invert = Jet.__mul__, Jet._invert

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

        def kernel(layout):
            self.kernels.append((len(layout.monomials[0]), layout.degree[-1]))
            return real_kernel(layout)

        def source(*key):
            text = real_source(*key)
            self.core_kernels.append(key)
            for fn in ast.parse(text).body:
                core_products[key, fn.name] = sum(isinstance(x, ast.Mult) for x in ast.walk(fn))
            return text

        def kernels(*key):
            def counted(fn):
                def call(*args):
                    self.core_products += core_products[key, fn.__name__]
                    return fn(*args)
                return call
            return tuple(map(counted, real_kernels(*key)))

        monkeypatch.setattr(Program, "__init__", init)
        monkeypatch.setattr(Program, "jets", jets)
        monkeypatch.setattr(Jet, "__mul__", mul)
        monkeypatch.setattr(Jet, "_invert", invert)
        monkeypatch.setattr(jetcore, "_product_kernel", kernel)
        monkeypatch.setattr(curvature, "_source", source)
        monkeypatch.setattr(curvature, "_kernels", kernels)

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
