"""BPSK / AWGN performance of two codes from the same family.

Transmits all-zero codewords (valid for linear codes on a symmetric
channel), decodes with the tanh-rule sum-product algorithm, and measures
BER/FER with an early-stopping Monte-Carlo loop.  It runs in a few
seconds.
"""

from fsscode import (
    StopRule,
    ber_sweep,
    exact_rate,
    expand,
    load_paper_tables,
    reference_code,
)

rows = {r["name"]: r for r in load_paper_tables()["girth_codes"]}


def build(name):
    return expand(reference_code(name)), rows[name]


H6, row6 = build("fss-3-12-m13")   # girth 6, n = 156
H8, row8 = build("fss-3-10-m36")   # girth 8, n = 360

for H, row in ((H6, row6), (H8, row8)):
    print(f"{row['name']}: n={H.cols}, girth {row['girth']}, "
          f"rate {exact_rate(H):.3f}")

snrs = [2.0, 3.0, 4.0]
stop = StopRule(min_frame_errors=100, max_frames=60_000)
for H, row in ((H6, row6), (H8, row8)):
    rate = 1.0 - row["v"] / row["b"]
    print(f"\n{row['name']} at rate {rate:.2f}:")
    for rec in ber_sweep(H, snrs, rate=rate, stop=stop, seed=1):
        print(f"  Eb/N0 {rec.ebn0_db:.1f} dB  BER {rec.ber:.3e}  "
              f"FER {rec.fer:.3e}  ({rec.frames} frames)")
