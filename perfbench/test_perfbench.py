"""Self-tests of the benchmark's generator, oracle and span arithmetic.

Run from the root of the checkout:

    python3 -m unittest perfbench.test_perfbench
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402
from qstokes import numerics, paths, periods, stokes  # noqa: E402

from perfbench import oracle, spans, workloads  # noqa: E402

V_PLUS_P2 = [[1, -3, 3], [0, 1, -3], [0, 0, 1]]
# one wall below the fixed P2 chamber: a mutated collection, same P^2
GRAM_P2_LOW = [[1, 3, 3], [0, 1, 3], [0, 0, 1]]


class TestGenerator(unittest.TestCase):
    def test_same_seed_same_cases(self):
        self.assertEqual(workloads.make_cases(7), workloads.make_cases(7))

    def test_other_seed_other_draws(self):
        a = [c for c in workloads.make_cases(7) if not c.fixed]
        b = [c for c in workloads.make_cases(8) if not c.fixed]
        self.assertNotEqual(a, b)

    def test_draw_ranges_and_fixed_chambers(self):
        cases = workloads.make_cases(3)
        fixed = [c for c in cases if c.fixed]
        self.assertEqual([(c.n, c.m) for c in fixed],
                         [(1, 0.0), (1, 0.3), (2, 0.0), (2, 0.3)])
        for c in cases:
            if c.fixed:
                continue
            self.assertTrue(0.0 <= c.eta.lifted_angle < 2.0 * math.pi)
            self.assertLessEqual(abs(np.angle(c.q)), 0.5)
            self.assertIn(c.m, workloads.M_VALUES)
        for n, count in workloads.DRAWS.items():
            angles = [c.eta.lifted_angle for c in cases if c.n == n and not c.fixed]
            self.assertEqual(len(angles), count)
            steps = np.diff(angles)
            self.assertTrue(np.allclose(steps, 2.0 * math.pi / count))


class TestOracle(unittest.TestCase):
    def test_chi_gram_inverse_is_the_p2_stokes_matrix(self):
        self.assertEqual(oracle.unitriangular_inverse(oracle.chi_gram(2)), V_PLUS_P2)

    def test_accepts_the_fixed_chamber_matrix_in_any_sign_gauge(self):
        signs = np.array([1, -1, -1])
        noisy = np.array(V_PLUS_P2) * np.outer(signs, signs) + 1e-9
        problem, dist = oracle.check_stokes(noisy.tolist(), 2, True)
        self.assertIsNone(problem)
        self.assertAlmostEqual(dist, 1e-9)

    def test_accepts_a_mutated_chamber_by_its_coxeter_polynomial(self):
        v = oracle.unitriangular_inverse(GRAM_P2_LOW)
        self.assertIsNone(oracle.check_stokes(v, 2, False)[0])
        self.assertIsNotNone(oracle.check_stokes(v, 2, True)[0])

    def test_rejects_perturbed_stokes_matrices(self):
        off_integer = np.array(V_PLUS_P2, dtype=complex)
        off_integer[0, 2] += 0.3
        self.assertIsNotNone(oracle.check_stokes(off_integer.tolist(), 2, False)[0])
        wrong_integer = np.array(V_PLUS_P2)
        wrong_integer[0, 1] += 1
        self.assertIsNotNone(oracle.check_stokes(wrong_integer.tolist(), 2, False)[0])
        lower = np.array(V_PLUS_P2)
        lower[2, 0] = 1
        self.assertIsNotNone(oracle.check_stokes(lower.tolist(), 2, False)[0])

    def test_coxeter_polynomial_of_pn(self):
        # G^{-1} G^T of P^n has the single eigenvalue (-1)^n
        for n in range(1, 6):
            want = [math.comb(n + 1, k) * (-1) ** (k * (n + 1)) for k in range(n + 2)]
            got = oracle.coxeter_charpoly(oracle.unitriangular_inverse(oracle.chi_gram(n)))
            self.assertEqual(list(got), want)


class TestSpans(unittest.TestCase):
    def test_self_time_of_a_recursive_tree(self):
        # A [0, 10] holds B [1, 4], which holds B [2, 3]; A also holds C [5, 9]
        tree = [
            (0, 0, -1, "A", 0.0, 10.0),
            (0, 1, 0, "B", 1.0, 4.0),
            (0, 2, 1, "B", 2.0, 3.0),
            (0, 3, 0, "C", 5.0, 9.0),
        ]
        table = spans.self_times(tree)
        self.assertEqual(table["A"], (1, 3.0))
        self.assertEqual(table["B"], (2, 3.0))
        self.assertEqual(table["C"], (1, 4.0))
        total = sum(self_s for _calls, self_s in table.values())
        self.assertEqual(total, 10.0)

    def test_tracer_patches_every_binding_and_restores_them(self):
        original = numerics.continue_linear_ode
        tracer = spans.Tracer()
        with tracer:
            self.assertIsNot(periods.continue_linear_ode, original)
            self.assertIs(stokes.continue_linear_ode, periods.continue_linear_ode)
            path = [1.0, 1.5, 2.0]
            y = periods.continue_linear_ode(lambda lam: np.zeros((1, 1)), [1.0], path)
            numerics.rgamma(-0.5)  # recurses once through the reflection formula
        self.assertIs(periods.continue_linear_ode, original)
        self.assertIs(stokes.continue_linear_ode, original)
        self.assertEqual(y[0], 1.0)
        self.assertEqual(tracer.counts["segments"], 2)
        self.assertGreater(tracer.counts["rhs_evals"], 0)
        names = [span[3] for span in tracer.spans]
        self.assertEqual(names.count("numerics.rgamma"), 2)
        self.assertEqual(tracer.spans[-1][2], tracer.spans[-2][1])


class TestWalls(unittest.TestCase):
    def test_bounding_walls(self):
        walls = [paths.Direction.from_lifted_angle(a) for a in (3.0, 1.0, -1.0)]
        eta = paths.Direction.from_lifted_angle(2.0)
        self.assertEqual(workloads.bounding_walls(walls, eta), (1, 0))
        eta = paths.Direction.from_lifted_angle(2.0 * math.pi - 0.5)
        self.assertEqual(workloads.bounding_walls(walls, eta), (2, 1))


if __name__ == "__main__":
    unittest.main()
