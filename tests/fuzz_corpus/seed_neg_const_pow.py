from repro import Array, f64, i64, wj, wootin


@wootin
class FuzzGuest:
    a: f64
    n: i64

    def __init__(self, a: f64, n: i64):
        self.a = a
        self.n = n

    def run(self, iters: i64) -> f64:
        # ``self.a`` folds to the literal -1.25 while the exponent stays a
        # runtime value, so the emitter writes the base itself: spelled
        # bare, ``-1.25 ** e`` parses as ``-(1.25 ** e)`` in Python and
        # every even power comes back with the wrong sign.
        arr = wj.zeros(f64, self.n)
        total = 0.0
        for it in range(iters):
            for i in range(self.n):
                arr[i] = self.a ** float(abs(i - 2) % 4)
                total = total + arr[i]
        wj.output("arr", arr)
        return total
