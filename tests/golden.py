"""Hand-verified constructions used across the test suite.

The running worked example is the 1x2 row function
``F(z) = (phi(z), 1) / sqrt(2)`` with ``phi`` the Blaschke factor at
``alpha``; for ``|alpha| < 1`` it is lossless with a one-state realization
whose gramians are known in closed form.
"""

import numpy as np

from paraunit import COISO, ISO, BlaschkePotapovForm, Pole, StateSpaceRealization

SQRT2 = np.sqrt(2.0)


def row_example_bp(alpha=0.5):
    """Product form of F(z) = (phi_alpha(z), 1) / sqrt(2)."""
    return BlaschkePotapovForm(
        COISO,
        1,
        2,
        [(Pole(alpha), np.array([1.0, 0.0], dtype=complex))],
        np.array([[1.0, 1.0]], dtype=complex) / SQRT2,
    )


def row_example_ss_normalized(alpha=0.5):
    """The balanced one-state realization (realization matrix coisometric)."""
    s = np.sqrt(1.0 - abs(alpha) ** 2)
    return StateSpaceRealization(
        [[alpha]],
        [[s, 0.0]],
        [[s / SQRT2]],
        [[-np.conj(alpha) / SQRT2, 1.0 / SQRT2]],
    )


def row_example_ss_unnormalized(alpha=0.5):
    """An equivalent realization of the same function, C = 1 (not coisometric)."""
    return StateSpaceRealization(
        [[alpha]],
        [[(1.0 - abs(alpha) ** 2) / SQRT2, 0.0]],
        [[1.0]],
        [[-np.conj(alpha) / SQRT2, 1.0 / SQRT2]],
    )


def row_example_embedded(alpha=0.5):
    """Unitary completion of the balanced realization matrix (one extra row)."""
    s = np.sqrt(1.0 - abs(alpha) ** 2)
    return np.array(
        [
            [alpha, s, 0.0],
            [s / SQRT2, -np.conj(alpha) / SQRT2, 1.0 / SQRT2],
            [s / SQRT2, -np.conj(alpha) / SQRT2, -1.0 / SQRT2],
        ],
        dtype=complex,
    )


def row_example_value(alpha, z):
    """Direct evaluation of F(z) = (phi(z), 1)/sqrt(2), bypassing the forms."""
    phi = (1.0 - np.conj(alpha) * z) / (z - alpha)
    return np.array([[phi, 1.0]], dtype=complex) / SQRT2


def square_embedding_value(alpha, z):
    """The doubly-indexed square member with F(z) = (1, 0) @ F_m(z)."""
    phi = (1.0 - np.conj(alpha) * z) / (z - alpha)
    return np.array([[phi, 1.0], [-1.0, 1.0 / phi]], dtype=complex) / SQRT2


#: ``bp_to_laurent(fir_form(46, 2, 2))`` (exponent offset -1) as the Laurent
#: expansion's own factor loop computed it, before that loop became the FIR
#: case of the shared product expansion; the expansion must reproduce it bit
#: for bit.
FIR_46_LAURENT = np.array(
    [
        [[(-0.47722957471588273-0.33219644894784606j), (0.2648941960705516+0.09596740654389176j)], [(-0.1857132538341962-0.14228324035834572j), (0.10470692548644203+0.04343644269287083j)]],
        [[(-0.007107526022977281+0.3448088442653301j), (0.3976023427204322+0.11806237756481491j)], [(-0.2533234476080975-0.18030112580691757j), (0.3117259678335837+0.17352299016917808j)]],
        [[(-0.35674160377036745-0.00432842677925544j), (-0.30942910082815306+0.030576079473589184j)], [(0.4037032398811655+0.09513170892232953j), (-0.16518146541818673+0.30275194382870657j)]],
        [[(-0.11244839671349792-0.014339556311064513j), (-0.23186538736896925+0.031182932459811318j)], [(0.2775612330750826+0.0483574205728997j), (0.5792143167425994-0.05112067054983579j)]],
    ]
)


#: Off-circle probe of the ``random_params`` pins below.
PARAMS_PROBE = 0.5 + 0.25j
#: Two ``random_params`` draws as ``(args, kwargs, poles, value)``: the
#: finite pole values (``None`` at infinity), each ``r * exp(1j * theta)``
#: of its drawn radius and angle, and
#: ``build_paraunitary(...).eval_many([PARAMS_PROBE])[0]``.  A rewrite of
#: the draw or of the build must reproduce both bit for bit.
PARAMS_DRAWS = [
    (
        (7, ISO, 3, 2, 4),
        {"schur_only": True},
        [(0.14402756746479248-0.8846691382905542j), 0j, (0.8722023713696708+0.02886550177109885j), (-0.7801664357440276+0.1593424072892884j)],
        [[(-0.4143289084180234-0.6237720426293409j), (0.4231981530041511-0.2882561671269562j)], [(0.777393230795491-0.8267910104453203j), (0.038793787517871076+0.1699839010248785j)], [(0.16441272692341602+0.621322805465311j), (0.8365533378579324-0.3632566431581551j)]],
    ),
    (
        (3, COISO, 2, 3, 4),
        {},
        [0j, (-1.6873139579789707+0.753863958074515j), (0.5544935358892424+0.48068892482599174j), None],
        [[(2.5028137029504096-1.5979684062417225j), (0.44780690370161474-1.0006558853540313j), (-0.7501836214721249-0.3972339548899404j)], [(-0.0267734244672755-0.731475356899498j), (0.2964476919158862-0.8842420886389442j), (-0.016200541623748878-0.15223040969730733j)]],
    ),
]
