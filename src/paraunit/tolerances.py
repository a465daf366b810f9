"""Every margin, tolerance and limit of the package, defined once.

Each characterization of circle (co)isometry (realization matrix,
Blaschke-Potapov product, matrix fraction) reaches its verdict by comparing
a residual with one of these thresholds, and every constructor and kernel
that refuses an input does so against one of them.  No other module defines
a threshold; this module imports nothing.

The code relies on two orderings:

* ``RADIUS_MARGIN > POLE_CIRCLE_MARGIN``, so random and fitted polar radii
  are legal poles.
* ``POLE_CIRCLE_MARGIN > SCHUR_MARGIN``, so every legal pole inside the disk
  passes the Stein and cascade stability tests.  ``bp_to_realization``'s
  ``PoleNotInDisk`` band ``1 - SCHUR_MARGIN <= |alpha| < 1`` is therefore
  reachable only by a pole built past ``Pole``'s own check.
"""

# Poles and evaluation points

#: Finite poles must keep at least this margin from the unit circle.
POLE_CIRCLE_MARGIN = 1e-8
#: Random and fitted polar radii keep this margin from the unit circle.
RADIUS_MARGIN = 1e-3
#: The fit's radius chart clamps radii to at least this, and encodes them
#: at least this far below ``1 - RADIUS_MARGIN``, so its logarithm is finite.
RADIUS_CHART_MARGIN = 1e-12
#: Evaluation refuses points closer than this to a pole.
EVAL_POLE_MARGIN = 1e-9
#: Stein solves and cascade factors require a spectral radius (a pole
#: modulus) below ``1 - SCHUR_MARGIN``, which keeps every pivot nonzero.
SCHUR_MARGIN = 1e-9

# Input contracts

#: Direction vectors within this distance of unit norm are renormalized.
DIRECTION_NORM_SLACK = 1e-6
#: Norms this close to one are left untouched, keeping round trips bit-exact.
DIRECTION_RENORM_SKIP = 1e-14
#: Largest ``||V*V - I||_F`` of a matrix that counts as an isometry.
ISOMETRY_TOL = 1e-10
#: Relative Hermitian-symmetry tolerance for eigensolver inputs.
HERMITIAN_RTOL = 1e-10
#: Hermitian-symmetry tolerance of a Stein right-hand side ``Q``, relative
#: to ``max(1, ||Q||_F)``: the solution is symmetrized on return.
STEIN_HERMITIAN_RTOL = 1e-12
#: Stein pairs up to this order take one dense solve of the ``n^2``
#: Kronecker system ``(I - T kron conj T) vec X = vec Q``, which is upper
#: triangular and needs numpy alone; larger orders solve column by column
#: with LAPACK ``ztrtrs`` (Kitagawa).  The dense cost grows as ``n^6`` and
#: the column loop's as ``n^3`` plus a Python step per column.  Median
#: microseconds per side on iso 4x2 cascades, the two paths interleaved in
#: one process on a 2-vCPU machine:
#:
#: ====== ==== ==== ==== ==== ==== ==== ==== ====
#: n      1    2    3    4    5    6    7    8
#: loop   17.1 24.1 29.8 36.0 42.1 47.9 54.9 62.6
#: dense  19.7 21.5 23.3 27.2 34.9 45.4 64.7 94.3
#: ====== ==== ==== ==== ==== ==== ==== ==== ====
#:
#: The loop is faster from order 7, by at most 32 us a side at order 8, but
#: the dense path loads no scipy, whose ``scipy.linalg`` import (about
#: 0.27 s) was most of a fresh-process CLI ``check`` or ``gramians`` on a
#: degree-8 realization.  From order 9 the dense solve costs about twice the
#: loop (about three times at 10, more than ten times at 16).
#: ``scipy.linalg.solve_discrete_lyapunov`` switches from the same dense
#: Kronecker solve to a bilinear transform at order 10.
STEIN_DENSE_ORDER_LIMIT = 8
#: An MFD denominator with a larger condition number counts as singular.
MFD_COND_LIMIT = 1e12
#: A realization must satisfy its (co)isometry condition this well before
#: all-pass embedding is attempted.
EMBED_RESIDUAL_TOL = 1e-8
#: Reconstruction tolerance when splitting off the constant (co)isometry.
EXTRACT_TOL = 1e-9

# Certificates (each certificate's ``tol`` argument overrides its default)

#: Fewest unit-circle sample points taken by default.
CIRCLE_SAMPLES = 64
#: Default tolerance of the circle-sampling certificate.
CIRCLE_TOL = 1e-8
#: Default tolerance of the realization-matrix certificate.
REALIZATION_TOL = 1e-10
#: Default tolerance of the gramian certificates.
GRAMIAN_TOL = 1e-8
#: Base tolerance of the Hankel certificates (scaled by coefficient mass
#: for the matrix-fraction test).
HANKEL_TOL = 1e-9
#: Eigenvalues of the gramian product above this count toward the degree.
DEGREE_RANK_TOL = 1e-9

# Fit

#: A fit restart whose objective falls below this has recovered its target,
#: and the remaining restarts are skipped.  Recoveries land far below it (the
#: criterion-8 fits at 3.5e-18 or less) and misses far above (1.36 or more
#: where seeded starts alone miss on the sweep of ``tests/test_fit.py``).
CONVERGED_OBJECTIVE = 1e-12
#: Residual evaluations one restart's least-squares search may spend (its
#: Jacobian is exact and evaluates none).  With seeded starts alone, a
#: budget of 2000 recovers the same 27 of 30 sweep targets as 200 in 1.7
#: times the time: a larger budget only lengthens the restarts that do not
#: recover.
FIT_EVAL_BUDGET = 200
#: Rank cut of the fit's Loewner pencil, relative to its largest singular
#: value.  On the 30 seeded sweep targets of ``tests/test_fit.py`` the kept
#: singular values of ``x L - S`` stay at or above 7.0e-5 and the dropped
#: ones at or below 8.2e-16, so the cut sits five orders from either side.
LOEWNER_RANK_RTOL = 1e-10
#: An identified pole of at most this modulus starts the search at the
#: origin, where it stays.  An origin pole of multiplicity ``k`` comes out of
#: the pencil as a cluster of radius about ``eps^(1/k)``.  On 1200 seeded
#: Schur draws (``p, m <= 4``, ``d <= 6``) the widest cluster measured 6.4e-10
#: for one, 1.6e-6 for two, 5.4e-5 for three and 5.0e-5 to 2.8e-4 for four,
#: so the cut takes every cluster of up to three; a pole of a wider cluster
#: starts searched, as every identified pole did before the cut.  None of
#: the draws' 3129 true nonzero finite poles lay below it, and one that does
#: costs the fit speed only: a start that misses falls through to the seeded
#: restarts.
LOEWNER_ORIGIN_RADIUS = 1e-4
