"""Guest classes for miscellaneous-coverage tests."""

from repro import Array, boolean, i32, i64, wj, wootin


@wootin
class I32Scaler:
    def __init__(self):
        pass

    def double_all(self, a: Array(i32)) -> i64:
        n = len(a)
        out = wj.zeros(i32, n)
        total = 0
        for i in range(n):
            out[i] = a[i] * 2
            total = total + out[i]
        wj.output("out", out)
        return total


@wootin
class BoolArrayUser:
    def __init__(self):
        pass

    def count(self, flags: Array(boolean)) -> i64:
        c = 0
        for i in range(len(flags)):
            if flags[i]:
                c = c + 1
        return c


@wootin
class SiteCounter:
    """One guest call, outside any loop and at the bottom of a 3-deep nest:
    both programs lower exactly one call site.  ``acc`` enters the loops as
    a constant and leaves them as a runtime value, so every loop needs a
    second fixpoint trial — whose first, discarded, must number no site."""

    def __init__(self):
        pass

    def bump(self, x: i64) -> i64:
        return x + 1

    def flat(self, n: i64) -> i64:
        return self.bump(n)

    def nested(self, n: i64) -> i64:
        acc = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = self.bump(acc)
        return acc
