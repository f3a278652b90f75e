"""Tour of the three seeded problem families.

* easy   — sparse banded Q = PP' + eps*I; mild conditioning via eps.
* medium — sparse Q with an exactly prescribed logarithmic spectrum,
           built by random Givens rotations until a target density.
* hard   — dense Q = O D O' with a geometric spectrum up to `cond`.

Every (family, parameters, seed) triple is bit-reproducible.  The last table
prints what one draw costs: its wall time and its tracemalloc peak, beside
the bytes Q itself is stored in.
"""

import time
import tracemalloc

import numpy as np

from rasqp import GeneratorSpec, generate

specs = [
    GeneratorSpec("easy", 400, seed=0, epsilon=1e-6),
    GeneratorSpec("medium", 400, seed=0, density=0.05, cond=1e8),
    GeneratorSpec("hard", 400, seed=0, cond=1e10),
]

print(f"{'family':<8}{'n':>6}{'storage':>9}{'density':>10}"
      f"{'cond(Q)':>12}{'lambda_min':>12}{'lambda_max':>12}")
for spec in specs:
    problem = generate(spec)
    Q = problem.dense_q()
    w = np.linalg.eigvalsh(Q)
    density = (np.count_nonzero(Q)) / (spec.n ** 2)
    storage = "sparse" if problem.is_sparse else "dense"
    print(f"{spec.family:<8}{spec.n:>6}{storage:>9}{density:>10.4f}"
          f"{w.max() / w.min():>12.3e}{w.min():>12.3e}{w.max():>12.3e}")

print("\nreproducibility: generating the same spec twice is bit-identical ->",
      np.array_equal(generate(specs[2]).dense_q(), generate(specs[2]).dense_q()))

# The medium generator hits its density target by applying spectrum-
# preserving rotations, so conditioning is exact by construction.
spec = specs[1]
problem = generate(spec)
w = np.sort(np.linalg.eigvalsh(problem.dense_q()))
want = np.logspace(-np.log10(spec.cond), 0, spec.n)
print("medium spectrum max relative error vs prescription:",
      f"{np.abs((w - want) / want).max():.2e}")

# The rotations touch only the cells they make nonzero, so a large sparse
# medium draw costs about as much as the Q it returns.
cost_specs = [*specs, GeneratorSpec("medium", 3000, seed=0, density=0.002, cond=1e10)]
print(f"\n{'family':<8}{'n':>6}{'draw ms':>10}{'peak MB':>10}{'Q MB':>8}")
for spec in cost_specs:
    start = time.perf_counter()
    generate(spec)
    elapsed = time.perf_counter() - start
    tracemalloc.start()  # a second draw: tracing slows the first one's clock
    problem = generate(spec)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    Q = problem.Q
    stored = Q.data.nbytes + Q.indices.nbytes + Q.indptr.nbytes if problem.is_sparse else Q.nbytes
    print(f"{spec.family:<8}{spec.n:>6}{elapsed * 1e3:>10.1f}{peak / 1e6:>10.2f}{stored / 1e6:>8.2f}")
