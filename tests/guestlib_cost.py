"""Guest classes used only by tests/test_translate_cost.py (the rule-check
counts there assume no other test translated these functions first)."""

from repro import Array, f64, i64, wootin


@wootin
class Cell:
    """Constructed inside translated code: every ``Cell(...)`` expression
    abstractly interprets — and rule-checks — this constructor."""

    v: f64
    w: f64

    def __init__(self, v: f64, w: f64):
        self.v = v
        self.w = w

    def weight(self) -> f64:
        return self.v * self.w


@wootin
class NestWalker:
    out: Array(f64)
    n: i64

    def __init__(self, out, n):
        self.out = out
        self.n = n

    def index(self, i: i64, j: i64, k: i64) -> i64:
        return (i * self.n + j) * self.n + k

    def fill(self) -> f64:
        """A 3-deep nest with no loop-carried local: every level's first
        fixpoint trial is already stable."""
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    self.out[self.index(i, j, k)] = Cell(1.0, 2.0).weight()
        return self.out[0]

    def total(self) -> f64:
        """The same nest with a carried accumulator: ``acc`` enters each
        loop as the constant 0.0 and comes round the back edge as a
        runtime value, so every level needs a second trial."""
        n = self.n
        acc = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = acc + Cell(1.0, 2.0).weight() * self.out[self.index(i, j, k)]
        return acc
