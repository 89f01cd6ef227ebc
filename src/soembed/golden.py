"""Built-in worked examples with known-correct outcomes.

Each check re-runs a library operation on a fixed input matrix and compares
against the recorded result (bit-exact where a matrix is recorded).  The
CLI exposes them as `so-embed verify-examples`; the suite doubles as a
fast end-to-end regression of profiles, embeddings, and distances.
"""

from __future__ import annotations

from .embedding import EmbedPolicy, embed
from .gf2 import gram, min_distance, parse_matrix, weight_distribution
from .profiles import column_profile, is_so_profile

G_10_3_PROFILE_DEMO = parse_matrix("0000111111\n0111001111\n1011010001")
TG_10_3_PROFILE_DEMO = parse_matrix("00001111110\n01110011111\n10110100011")
G_7_2 = parse_matrix("0001111\n1110001")
TG_7_2 = parse_matrix("0001111011\n1110001101")
G_3_2_STUCK = parse_matrix("011\n101")
G_10_3_EMBED_DEMO = parse_matrix("0000011111\n0011100011\n1100100111")
TG_10_3_EMBED_DEMO = parse_matrix(
    "000001111101\n001110001110\n110010011111"
)
G_7_4_HAMMING = parse_matrix("0000111\n0011001\n0101010\n1001011")
TG_8_4_EXT_HAMMING = parse_matrix("00001111\n00110011\n01010101\n10010110")
G_5_4 = parse_matrix("00011\n00101\n01001\n10001")
TG_10_4 = parse_matrix(
    "0001100011\n0010100101\n0100101001\n1000110001"
)
G_9_5 = parse_matrix(
    "000011111\n000100111\n001001011\n010001101\n100001110"
)
TG_11_5 = parse_matrix(
    "00001111110\n00010011111\n00100101111\n01000110111\n10000111011"
)
G_4_4 = parse_matrix("0001\n0010\n0100\n1000")
TG_8_4_DEFAULT = parse_matrix("00010001\n00100010\n01000100\n10001000")
TG_8_4_ALT = parse_matrix("00010111\n00101011\n01001101\n10001110")


def _check_profile_demo() -> bool:
    prof = column_profile(G_10_3_PROFILE_DEMO)
    return (
        prof.ell == (1, 1, 2, 1, 1, 3, 1)
        and prof.zero_count == 0
        and not is_so_profile(G_10_3_PROFILE_DEMO)
        and is_so_profile(TG_10_3_PROFILE_DEMO)
        and gram(TG_10_3_PROFILE_DEMO).is_zero()
    )


def _check_dim2_embedding() -> bool:
    rep = embed(G_7_2)
    return (
        rep.output == TG_7_2
        and rep.added == ((2, 1), (2, 2), (2, 3))
        and min_distance(rep.output) == 6
        and rep.so_verified
    )


def _check_dim2_needs_three() -> bool:
    rep = embed(G_3_2_STUCK)
    return rep.added_count == 3 and rep.so_verified


def _check_dim3_embedding() -> bool:
    odd = column_profile(G_10_3_EMBED_DEMO).parity_mask()
    rep = embed(G_10_3_EMBED_DEMO)
    return (
        odd == 1 << 3 | 1 << 5
        and rep.output == TG_10_3_EMBED_DEMO
        and rep.added == ((3, 3), (3, 5))
        and min_distance(rep.output) == 6
    )


def _check_hamming_embedding() -> bool:
    rep = embed(G_7_4_HAMMING)
    return (
        rep.output == TG_8_4_EXT_HAMMING
        and rep.added == ((4, 14),)
        and min_distance(rep.output) == 4
        and weight_distribution(rep.output) == {0: 1, 4: 14, 8: 1}
    )


def _check_five_column_embedding() -> bool:
    rep = embed(G_5_4)
    return (
        rep.output == TG_10_4
        and rep.added == ((4, 1), (4, 2), (4, 4), (4, 8), (4, 15))
        and min_distance(rep.output) == 4
        and rep.so_verified
    )


def _check_dim5_embedding() -> bool:
    rep = embed(G_9_5)
    return (
        rep.output == TG_11_5
        and rep.added_count == 2
        and min_distance(rep.output) == 4
        and rep.so_verified
    )


def _check_identity_embedding_default() -> bool:
    rep = embed(G_4_4)
    return rep.output == TG_8_4_DEFAULT and min_distance(rep.output) == 2


def _check_identity_embedding_alt_policy() -> bool:
    rep = embed(G_4_4, EmbedPolicy(s0=15, tie4="difference"))
    return (
        rep.output == TG_8_4_ALT
        and rep.added_count == 4
        and min_distance(rep.output) == 4
    )


# (name, check) for each worked example
EXAMPLES = (
    ("profile and verdicts of the [10,3] demo pair", _check_profile_demo),
    ("[7,2,4] embeds to the [10,2,6] code", _check_dim2_embedding),
    ("[3,2] stuck matrix needs all three columns", _check_dim2_needs_three),
    ("[10,3,5] embeds to [12,3,6] adding h3 then h5", _check_dim3_embedding),
    ("[7,4] Hamming embeds to the [8,4,4] extension", _check_hamming_embedding),
    ("[5,4,2] embeds to a [10,4,4] code in five columns", _check_five_column_embedding),
    ("[9,5,3] embeds to an [11,5,4] code", _check_dim5_embedding),
    ("[4,4] identity embeds to [8,4,2] by default", _check_identity_embedding_default),
    ("[4,4] identity embeds to [8,4,4] under the alternate policy", _check_identity_embedding_alt_policy),
)


def run_examples() -> list[tuple[str, bool]]:
    return [(name, bool(check())) for name, check in EXAMPLES]
