/* One layered min-sum iteration over a batch of codewords, and the parity
 * bits of a range of base rows over a batch of hard decisions (the syndrome
 * and the encoder), compiled at first use by ldpclab.native. The iteration is
 * bit-exact with the numpy engine (ScalarWorkspace.layer), the row parities
 * with codec's numpy roll loop.
 *
 * Layout, all C-contiguous: posteriors lv (batch, n_blocks, z), messages
 * msg (batch, n_edges, z). Edge e of base row r lies in
 * [row_start[r], row_start[r + 1]) and couples block cols[e] at circulant
 * shift shifts[e] (already reduced mod z): position k of the row reads
 * lv[cols[e]][(k + shift) mod z], two contiguous runs.
 *
 * Per row and codeword: gather each edge's extrinsic, fold (m1, m2, sign,
 * argmin tag) elementwise over z in edge order, scale by beta, then write
 * messages and posteriors back through the same two runs. The strided
 * low-latency reduce yields the same m1, m2 and signs; its tag differs only
 * where m1 == m2, where the selected magnitude is the same, so one
 * sequential fold serves both strategies.
 *
 * Build without -ffast-math and with -ffp-contract=off: a fused multiply-add
 * would round differently from numpy.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define INT8_SAT 127

static inline int32_t sat_i32(int32_t v)
{
    return v > INT8_SAT ? INT8_SAT : (v < -INT8_SAT ? -INT8_SAT : v);
}

static int64_t max_row_weight(int64_t rows, const int64_t *row_start)
{
    int64_t w_max = 0;
    for (int64_t r = 0; r < rows; r++)
        if (row_start[r + 1] - row_start[r] > w_max)
            w_max = row_start[r + 1] - row_start[r];
    return w_max;
}

/* int8 arithmetic widened to int32: the extrinsic raw = L_v - msg stays
 * unclamped, sat(raw) enters the check node, the posterior becomes
 * sat(raw + out) and the message stores sat(raw + out) - raw. beta_lut[m]
 * is floor(beta * m) for m in 0..127. */
int layer_iteration_i32(int32_t *lv, int32_t *msg, int64_t batch,
                        int64_t n_blocks, int64_t z, int64_t rows,
                        const int64_t *row_start, const int64_t *cols,
                        const int64_t *shifts, const int32_t *beta_lut)
{
    /* per row: the extrinsics of up to w_max edges, then the fold's m1, m2,
     * sign parity and argmin tag at every position */
    int64_t w_max = max_row_weight(rows, row_start);
    int32_t *x = malloc(sizeof(int32_t) * (w_max + 4) * z);
    if (!x)
        return -1;
    int32_t *m1 = x + w_max * z, *m2 = m1 + z, *sg = m2 + z, *tag = sg + z;
    int64_t n_edges = row_start[rows];

    for (int64_t b = 0; b < batch; b++) {
        int32_t *lvb = lv + b * n_blocks * z;
        int32_t *msgb = msg + b * n_edges * z;
        for (int64_t r = 0; r < rows; r++) {
            int64_t e0 = row_start[r], w = row_start[r + 1] - e0;
            for (int64_t j = 0; j < w; j++) {
                const int32_t *src = lvb + cols[e0 + j] * z;
                const int32_t *m = msgb + (e0 + j) * z;
                int32_t *xj = x + j * z;
                int64_t s = shifts[e0 + j];
                for (int64_t k = 0; k < z - s; k++)
                    xj[k] = src[k + s] - m[k];
                for (int64_t k = z - s; k < z; k++)
                    xj[k] = src[k + s - z] - m[k];
            }
            for (int64_t k = 0; k < z; k++) {
                m1[k] = INT8_SAT;
                m2[k] = INT8_SAT;
                sg[k] = 0;
                tag[k] = -1;
            }
            for (int32_t j = 0; j < w; j++) {
                const int32_t *xj = x + j * z;
                for (int64_t k = 0; k < z; k++) {
                    int32_t v = sat_i32(xj[k]);
                    int32_t a = v < 0 ? -v : v;
                    int32_t win = a < m1[k];
                    int32_t loser = win ? m1[k] : a;
                    m2[k] = loser < m2[k] ? loser : m2[k];
                    m1[k] = win ? a : m1[k];
                    tag[k] = win ? j : tag[k];
                    sg[k] ^= v < 0;
                }
            }
            for (int64_t k = 0; k < z; k++) {
                m1[k] = beta_lut[m1[k]];
                m2[k] = beta_lut[m2[k]];
            }
            for (int32_t j = 0; j < w; j++) {
                int32_t *dst = lvb + cols[e0 + j] * z;
                int32_t *m = msgb + (e0 + j) * z;
                int32_t *xj = x + j * z;
                int64_t s = shifts[e0 + j];
                for (int64_t k = 0; k < z; k++) {
                    int32_t raw = xj[k];
                    int32_t mag = tag[k] == j ? m2[k] : m1[k];
                    int32_t out = (sg[k] ^ (sat_i32(raw) < 0)) ? -mag : mag;
                    int32_t upd = sat_i32(raw + out);
                    m[k] = upd - raw;
                    xj[k] = upd;
                }
                for (int64_t k = 0; k < z - s; k++)
                    dst[k + s] = xj[k];
                for (int64_t k = z - s; k < z; k++)
                    dst[k + s - z] = xj[k];
            }
        }
    }
    free(x);
    return 0;
}

/* f32: the extrinsic lvc = L_v - msg enters the check node, the posterior
 * becomes lvc + out and the message stores out; beta scales in f32. */
int layer_iteration_f32(float *lv, float *msg, int64_t batch,
                        int64_t n_blocks, int64_t z, int64_t rows,
                        const int64_t *row_start, const int64_t *cols,
                        const int64_t *shifts, float beta)
{
    int64_t w_max = max_row_weight(rows, row_start);
    float *x = malloc(sizeof(float) * (w_max + 2) * z);
    int32_t *flags = malloc(sizeof(int32_t) * 2 * z);
    if (!x || !flags) {
        free(x);
        free(flags);
        return -1;
    }
    float *m1 = x + w_max * z, *m2 = m1 + z;
    int32_t *sg = flags, *tag = flags + z;
    int64_t n_edges = row_start[rows];

    for (int64_t b = 0; b < batch; b++) {
        float *lvb = lv + b * n_blocks * z;
        float *msgb = msg + b * n_edges * z;
        for (int64_t r = 0; r < rows; r++) {
            int64_t e0 = row_start[r], w = row_start[r + 1] - e0;
            for (int64_t j = 0; j < w; j++) {
                const float *src = lvb + cols[e0 + j] * z;
                const float *m = msgb + (e0 + j) * z;
                float *xj = x + j * z;
                int64_t s = shifts[e0 + j];
                for (int64_t k = 0; k < z - s; k++)
                    xj[k] = src[k + s] - m[k];
                for (int64_t k = z - s; k < z; k++)
                    xj[k] = src[k + s - z] - m[k];
            }
            for (int64_t k = 0; k < z; k++) {
                m1[k] = INFINITY;
                m2[k] = INFINITY;
                sg[k] = 0;
                tag[k] = -1;
            }
            for (int32_t j = 0; j < w; j++) {
                const float *xj = x + j * z;
                for (int64_t k = 0; k < z; k++) {
                    float v = xj[k];
                    float a = fabsf(v);
                    int32_t win = a < m1[k];
                    float loser = win ? m1[k] : a;
                    m2[k] = loser < m2[k] ? loser : m2[k];
                    m1[k] = win ? a : m1[k];
                    tag[k] = win ? j : tag[k];
                    sg[k] ^= v < 0.0f;
                }
            }
            for (int64_t k = 0; k < z; k++) {
                m1[k] = beta * m1[k];
                m2[k] = beta * m2[k];
            }
            for (int32_t j = 0; j < w; j++) {
                float *dst = lvb + cols[e0 + j] * z;
                float *m = msgb + (e0 + j) * z;
                float *xj = x + j * z;
                int64_t s = shifts[e0 + j];
                for (int64_t k = 0; k < z; k++) {
                    float v = xj[k];
                    float mag = tag[k] == j ? m2[k] : m1[k];
                    float out = (sg[k] ^ (v < 0.0f)) ? -mag : mag;
                    m[k] = out;
                    xj[k] = v + out;
                }
                for (int64_t k = 0; k < z - s; k++)
                    dst[k + s] = xj[k];
                for (int64_t k = z - s; k < z; k++)
                    dst[k + s - z] = xj[k];
            }
        }
    }
    free(x);
    free(flags);
    return 0;
}

/* Parity bits of base rows [r0, r1) of the uint8 hard bits
 * (batch, n_blocks, z), written to par (batch, r1 - r0, z), and each
 * codeword's count of unsatisfied checks among them in weights. Row r's check
 * at position k is the XOR over its edges of bits[cols[e]][(k + shift) mod z],
 * gathered through the same two runs as the layer iterations. */
void row_parities(const uint8_t *restrict bits, uint8_t *restrict par,
                  int64_t *restrict weights, int64_t batch, int64_t n_blocks,
                  int64_t z, int64_t r0, int64_t r1, const int64_t *row_start,
                  const int64_t *cols, const int64_t *shifts)
{
    for (int64_t b = 0; b < batch; b++) {
        const uint8_t *bitsb = bits + b * n_blocks * z;
        int64_t w = 0;
        for (int64_t r = r0; r < r1; r++) {
            uint8_t *acc = par + (b * (r1 - r0) + r - r0) * z;
            for (int64_t k = 0; k < z; k++)
                acc[k] = 0;
            for (int64_t e = row_start[r]; e < row_start[r + 1]; e++) {
                const uint8_t *src = bitsb + cols[e] * z;
                int64_t s = shifts[e];
                for (int64_t k = 0; k < z - s; k++)
                    acc[k] ^= src[k + s];
                for (int64_t k = z - s; k < z; k++)
                    acc[k] ^= src[k + s - z];
            }
            for (int64_t k = 0; k < z; k++)
                w += acc[k];
        }
        weights[b] = w;
    }
}
