/* One layered min-sum iteration over a batch of codewords, each codeword's
 * pass ending with what decoding reads of it (hard decisions, min |L_v|, the
 * count of unsatisfied checks), the parity bits of a range of base rows over
 * a batch of hard decisions (the syndrome and the encoder), and the channel
 * stage from standard normals to decoder blocks, compiled at first use by
 * ldpclab.native. The iteration is bit-exact with the numpy engine
 * (ScalarWorkspace.layer), what it reads out with the numpy lines of
 * decoder._run_schedule, the row parities with codec's numpy roll loop, the
 * channel pass with channel's quantize(demap_llr(bpsk_awgn(...))).
 *
 * Layout, all C-contiguous: posteriors lv (batch, n_blocks, z), messages
 * msg (batch, n_edges, z), both int8 or both f32. int8 values stay bytes in
 * memory; only the extrinsic and the fold run in int16 scratch. Edge e of
 * base row r lies in [row_start[r], row_start[r + 1]) and couples block
 * cols[e] at circulant shift shifts[e] (already reduced mod z): position k
 * of the row reads lv[cols[e]][(k + shift) mod z], two contiguous runs.
 *
 * Per row and codeword: gather each edge's extrinsic, fold (m1, m2, sign,
 * argmin tag) elementwise over z in edge order, scale by beta, then write
 * messages and posteriors back through the same two runs. After its last
 * row a codeword's posteriors are read out while they are still in cache:
 * hard decisions, min |L_v| and the count of unsatisfied checks. A pass given
 * the sorted indices of the codewords still live runs those alone and leaves
 * the rest, posteriors, messages and readout, as they were: decoding retires
 * a codeword this way once it has settled.
 *
 * Codewords never interact, so every entry point shares its batch among
 * `slices` threads (split()): the calling thread and slices - 1 pthreads
 * claim codewords one at a time from a shared counter, and the calling
 * thread joins the others before it returns, so no thread outlives a call.
 * All threads' scratch comes from one allocation in the calling thread, each
 * thread's part starting on its own 64-byte line; where a thread cannot be
 * created the others take its codewords. The result is the
 * same for every slice count.
 *
 * Build with -pthread, without -ffast-math and with -ffp-contract=off: a
 * fused multiply-add, or a division turned into a multiplication, would
 * round differently from numpy.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

#define INT8_SAT 127

/* The work on codewords [b0, b1) of the call described by args (for a layer
 * pass, slots [b0, b1) of its live list). */
typedef int (*slice_fn)(const void *args, int64_t b0, int64_t b1, void *scratch);

struct slice {
    slice_fn fn;
    const void *args;
    int64_t batch, *next;
    void *scratch;
    int status;
    int started;
    pthread_t thread;
};

/* Claim codewords one at a time until none is left, so a thread whose core
 * runs slower (on a shared host) takes fewer of them. */
static void *run_slice(void *p)
{
    struct slice *s = p;
    int64_t b;
    while ((b = __atomic_fetch_add(s->next, 1, __ATOMIC_RELAXED)) < s->batch)
        s->status |= s->fn(s->args, b, b + 1, s->scratch);
    return NULL;
}

/* Run fn over `batch` codewords on `slices` threads (at most one per
 * codeword), each with scratch_bytes of its own. Returns -1 if the block for
 * the threads and their scratch cannot be allocated, else their status
 * OR-ed. */
static int split(slice_fn fn, const void *args, int64_t batch, int64_t slices,
                 size_t scratch_bytes)
{
    slices = slices > batch ? batch : slices;
    slices = slices < 1 ? 1 : slices;
    size_t head = (sizeof(struct slice) * slices + 63) & ~(size_t)63;
    size_t stride = (scratch_bytes + 63) & ~(size_t)63;
    /* aligned, or a thread's int16 scratch could start mid-line: with half of
     * its 32-byte vectors split across two lines a BG1 Z=384 int8 layer pass
     * took 6% longer */
    char *block = aligned_alloc(64, head + stride * slices);
    if (!block)
        return -1;
    struct slice *s = (struct slice *)block;
    int64_t next = 0;
    for (int64_t i = 0; i < slices; i++) {
        s[i].fn = fn;
        s[i].args = args;
        s[i].batch = batch;
        s[i].next = &next;
        s[i].scratch = block + head + stride * i;
        s[i].status = 0;
    }
    for (int64_t i = 1; i < slices; i++)
        s[i].started = pthread_create(&s[i].thread, NULL, run_slice, &s[i]) == 0;
    run_slice(&s[0]);
    int status = s[0].status;
    for (int64_t i = 1; i < slices; i++) {
        if (s[i].started)
            pthread_join(s[i].thread, NULL);
        status |= s[i].status;
    }
    free(block);
    return status;
}

static inline int16_t sat_i8(int16_t v)
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

/* Row r's parity bits over one codeword's hard bits into acc (z bytes): the
 * check at position k is the XOR over the row's edges of
 * bits[cols[e]][(k + shift) mod z], gathered through the same two runs as the
 * layer iterations. Returns the count of ones. */
static int64_t row_parity(const uint8_t *restrict bits, uint8_t *restrict acc,
                          int64_t z, int64_t r, const int64_t *row_start,
                          const int64_t *cols, const int64_t *shifts)
{
    for (int64_t k = 0; k < z; k++)
        acc[k] = 0;
    for (int64_t e = row_start[r]; e < row_start[r + 1]; e++) {
        const uint8_t *src = bits + cols[e] * z;
        int64_t s = shifts[e];
        for (int64_t k = 0; k < z - s; k++)
            acc[k] ^= src[k + s];
        for (int64_t k = z - s; k < z; k++)
            acc[k] ^= src[k + s - z];
    }
    int64_t ones = 0;
    for (int64_t k = 0; k < z; k++)
        ones += acc[k];
    return ones;
}

/* One codeword's hard decisions lv < 0 and min |lv| over n posteriors. An
 * f32 posterior is read as its bit pattern, so both loops vectorize: for
 * finite values |v| orders as the bits below the sign, and v < 0 is a set
 * sign on a nonzero magnitude (-0.0 is not negative). A NaN would order
 * above +inf, where numpy's min returns it: the two differ only once an f32
 * posterior has overflowed, which unbounded growth at beta = 1 with early
 * stop off reaches after some hundreds of iterations. */
static double hard_and_margin_f32(const uint32_t *lv, uint8_t *hard, int64_t n)
{
    uint32_t m = 0x7f800000u;                  /* +inf */
    for (int64_t i = 0; i < n; i++) {
        uint32_t a = lv[i] & 0x7fffffffu;
        m = a < m ? a : m;
    }
    for (int64_t i = 0; i < n; i++)
        hard[i] = (lv[i] >> 31) & ((lv[i] & 0x7fffffffu) != 0);
    union { uint32_t u; float f; } margin = {m};
    return margin.f;
}

static double hard_and_margin_i8(const int8_t *lv, uint8_t *hard, int64_t n)
{
    uint8_t m = UINT8_MAX;
    for (int64_t i = 0; i < n; i++) {
        uint8_t a = lv[i] < 0 ? (uint8_t)-lv[i] : (uint8_t)lv[i];
        m = a < m ? a : m;
    }
    for (int64_t i = 0; i < n; i++)
        hard[i] = lv[i] < 0;
    return m;
}

struct layer_args {
    void *lv, *msg;
    const int64_t *live;
    uint8_t *hard;
    double *margins;
    int64_t *weights;
    int64_t n_blocks, z, rows, w_max;
    const int64_t *row_start, *cols, *shifts;
    const int32_t *beta_lut;
    float beta;
};

/* Codeword b's count of unsatisfied checks over the used rows, from its hard
 * decisions; acc is z bytes of the slice's scratch. */
static int64_t unsatisfied(const struct layer_args *p, int64_t b, uint8_t *acc)
{
    const uint8_t *hard = p->hard + b * p->n_blocks * p->z;
    int64_t w = 0;
    for (int64_t r = 0; r < p->rows; r++)
        w += row_parity(hard, acc, p->z, r, p->row_start, p->cols, p->shifts);
    return w;
}

/* int8 posteriors and messages, with the extrinsic and the fold in int16:
 * the extrinsic raw = L_v - msg (|raw| <= 254) stays unclamped, sat(raw)
 * enters the check node, the posterior becomes sat(raw + out) and the message
 * stores sat(raw + out) - raw, which lies within +/-127 like every stored
 * value. beta_lut[m] is floor(beta * m) for m in 0..127. */
static int layer_i8(const void *args, int64_t b0, int64_t b1, void *scratch)
{
    const struct layer_args *p = args;
    int64_t z = p->z, n_edges = p->row_start[p->rows];
    const int64_t *row_start = p->row_start, *cols = p->cols, *shifts = p->shifts;
    const int32_t *beta_lut = p->beta_lut;
    /* per row: the extrinsics of up to w_max edges, then the fold's m1, m2,
     * sign parity and argmin tag at every position */
    int16_t *x = scratch;
    int16_t *m1 = x + p->w_max * z, *m2 = m1 + z, *sg = m2 + z, *tag = sg + z;

    for (int64_t i = b0; i < b1; i++) {
        int64_t b = p->live ? p->live[i] : i;
        int8_t *lvb = (int8_t *)p->lv + b * p->n_blocks * z;
        int8_t *msgb = (int8_t *)p->msg + b * n_edges * z;
        for (int64_t r = 0; r < p->rows; r++) {
            int64_t e0 = row_start[r], w = row_start[r + 1] - e0;
            for (int64_t j = 0; j < w; j++) {
                const int8_t *src = lvb + cols[e0 + j] * z;
                const int8_t *m = msgb + (e0 + j) * z;
                int16_t *xj = x + j * z;
                int64_t s = shifts[e0 + j];
                for (int64_t k = 0; k < z - s; k++)
                    xj[k] = (int16_t)(src[k + s] - m[k]);
                for (int64_t k = z - s; k < z; k++)
                    xj[k] = (int16_t)(src[k + s - z] - m[k]);
            }
            for (int64_t k = 0; k < z; k++) {
                m1[k] = INT8_SAT;
                m2[k] = INT8_SAT;
                sg[k] = 0;
                tag[k] = -1;
            }
            for (int16_t j = 0; j < w; j++) {
                const int16_t *xj = x + j * z;
                for (int64_t k = 0; k < z; k++) {
                    int16_t v = sat_i8(xj[k]);
                    int16_t a = v < 0 ? -v : v;
                    int16_t win = a < m1[k];
                    int16_t loser = win ? m1[k] : a;
                    m2[k] = loser < m2[k] ? loser : m2[k];
                    m1[k] = win ? a : m1[k];
                    tag[k] = win ? j : tag[k];
                    sg[k] ^= v < 0;
                }
            }
            for (int64_t k = 0; k < z; k++) {
                m1[k] = (int16_t)beta_lut[m1[k]];
                m2[k] = (int16_t)beta_lut[m2[k]];
            }
            for (int16_t j = 0; j < w; j++) {
                int8_t *dst = lvb + cols[e0 + j] * z;
                int8_t *m = msgb + (e0 + j) * z;
                int16_t *xj = x + j * z;
                int64_t s = shifts[e0 + j];
                for (int64_t k = 0; k < z; k++) {
                    int16_t raw = xj[k];
                    int16_t mag = tag[k] == j ? m2[k] : m1[k];
                    int16_t out = (sg[k] ^ (raw < 0)) ? -mag : mag;
                    int16_t upd = sat_i8(raw + out);
                    m[k] = (int8_t)(upd - raw);
                    xj[k] = upd;
                }
                for (int64_t k = 0; k < z - s; k++)
                    dst[k + s] = (int8_t)xj[k];
                for (int64_t k = z - s; k < z; k++)
                    dst[k + s - z] = (int8_t)xj[k];
            }
        }
        if (p->hard) {
            int64_t n = p->n_blocks * z;
            p->margins[b] = hard_and_margin_i8(lvb, p->hard + b * n, n);
            p->weights[b] = unsatisfied(p, b, scratch);
        }
    }
    return 0;
}

/* f32: the extrinsic lvc = L_v - msg enters the check node, the posterior
 * becomes lvc + out and the message stores out; beta scales in f32. */
static int layer_f32(const void *args, int64_t b0, int64_t b1, void *scratch)
{
    const struct layer_args *p = args;
    int64_t z = p->z, n_edges = p->row_start[p->rows];
    const int64_t *row_start = p->row_start, *cols = p->cols, *shifts = p->shifts;
    float beta = p->beta;
    float *x = scratch;
    float *m1 = x + p->w_max * z, *m2 = m1 + z;
    int32_t *sg = (int32_t *)(m2 + z), *tag = sg + z;

    for (int64_t i = b0; i < b1; i++) {
        int64_t b = p->live ? p->live[i] : i;
        float *lvb = (float *)p->lv + b * p->n_blocks * z;
        float *msgb = (float *)p->msg + b * n_edges * z;
        for (int64_t r = 0; r < p->rows; r++) {
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
        if (p->hard) {
            int64_t n = p->n_blocks * z;
            const uint32_t *bits = (const uint32_t *)lvb;
            p->margins[b] = hard_and_margin_f32(bits, p->hard + b * n, n);
            p->weights[b] = unsatisfied(p, b, scratch);
        }
    }
    return 0;
}

/* One iteration in place over the codewords live[0..n_live) of the batch,
 * sorted and distinct, or over codewords 0..n_live where live is NULL; the
 * others are not touched. Where hard is not NULL, each codeword's pass ends by
 * reading it out: the uint8 hard decisions lv < 0 into its row of hard
 * (batch, n_blocks, z), min |lv| into margins and the count of unsatisfied
 * checks over the used rows into weights, each at the codeword's own index. */
int layer_iteration_i8(int8_t *lv, int8_t *msg, const int64_t *live, uint8_t *hard,
                       double *margins, int64_t *weights, int64_t n_live, int64_t n_blocks,
                       int64_t z, int64_t rows, const int64_t *row_start, const int64_t *cols,
                       const int64_t *shifts, const int32_t *beta_lut, int64_t slices)
{
    struct layer_args a = {lv, msg, live, hard, margins, weights, n_blocks, z, rows,
                           max_row_weight(rows, row_start), row_start, cols,
                           shifts, beta_lut, 0.0f};
    /* the extrinsics, m1, m2, sign parity and tag, all int16; the z-byte
     * parity row of the unsatisfied-check count reuses the extrinsics */
    return split(layer_i8, &a, n_live, slices,
                 sizeof(int16_t) * (a.w_max + 4) * z);
}

int layer_iteration_f32(float *lv, float *msg, const int64_t *live, uint8_t *hard,
                        double *margins, int64_t *weights, int64_t n_live, int64_t n_blocks,
                        int64_t z, int64_t rows, const int64_t *row_start, const int64_t *cols,
                        const int64_t *shifts, float beta, int64_t slices)
{
    struct layer_args a = {lv, msg, live, hard, margins, weights, n_blocks, z, rows,
                           max_row_weight(rows, row_start), row_start, cols,
                           shifts, NULL, beta};
    /* the extrinsics, m1 and m2 as floats; sign parity and tag as int32 */
    return split(layer_f32, &a, n_live, slices, 4 * (a.w_max + 4) * z);
}

struct parity_args {
    const uint8_t *bits;
    uint8_t *par;
    int64_t *weights;
    int64_t n_blocks, z, r0, r1;
    const int64_t *row_start, *cols, *shifts;
};

static int parities(const void *args, int64_t b0, int64_t b1, void *scratch)
{
    const struct parity_args *a = args;
    (void)scratch;
    for (int64_t b = b0; b < b1; b++) {
        const uint8_t *bitsb = a->bits + b * a->n_blocks * a->z;
        int64_t w = 0;
        for (int64_t r = a->r0; r < a->r1; r++)
            w += row_parity(bitsb, a->par + (b * (a->r1 - a->r0) + r - a->r0) * a->z,
                            a->z, r, a->row_start, a->cols, a->shifts);
        a->weights[b] = w;
    }
    return 0;
}

/* Parity bits of base rows [r0, r1) of the uint8 hard bits
 * (batch, n_blocks, z), written to par (batch, r1 - r0, z), and each
 * codeword's count of unsatisfied checks among them in weights. */
int row_parities(const uint8_t *bits, uint8_t *par, int64_t *weights,
                 int64_t batch, int64_t n_blocks, int64_t z, int64_t r0,
                 int64_t r1, const int64_t *row_start, const int64_t *cols,
                 const int64_t *shifts, int64_t slices)
{
    struct parity_args a = {bits, par, weights, n_blocks, z, r0, r1, row_start, cols,
                            shifts};
    return split(parities, &a, batch, slices, 0);
}

struct channel_args {
    const double *noise;
    const uint8_t *bits;
    void *out;
    int is_float;
    int64_t n_tx, punctured;
    double sigma, scale, bound;
};

/* Per codeword: punctured zeros, then each transmitted bit's LLR in the
 * float64 order of channel.bpsk_awgn and channel.demap_llr,
 * ((0.0 + sigma * g) + (1 - 2b)) * 2 / (sigma * sigma), written as int8
 * rint(L * scale) clipped to +/-bound, or as f32 clipped to +/-bound in
 * float64 and rounded once on the store, as channel.quantize. A NaN LLR is
 * written as 0 and reported as status 2. */
static int channel_rows(const void *args, int64_t b0, int64_t b1, void *scratch)
{
    const struct channel_args *a = args;
    int64_t n_tx = a->n_tx, punctured = a->punctured, n_c = punctured + n_tx;
    double sigma = a->sigma, s2 = sigma * sigma, scale = a->scale, bound = a->bound;
    int has_nan = 0;
    (void)scratch;
    for (int64_t b = b0; b < b1; b++) {
        const double *g = a->noise + b * n_tx;
        const uint8_t *bits = a->bits + b * n_tx;
        if (a->is_float) {
            float *out = (float *)a->out + b * n_c;
            for (int64_t k = 0; k < punctured; k++)
                out[k] = 0.0f;
            out += punctured;
            for (int64_t k = 0; k < n_tx; k++) {
                double l = ((0.0 + sigma * g[k]) + (1.0 - 2.0 * bits[k])) * 2.0 / s2;
                has_nan |= l != l;
                l = l != l ? 0.0 : l;
                out[k] = (float)(l > bound ? bound : (l < -bound ? -bound : l));
            }
        } else {
            int8_t *out = (int8_t *)a->out + b * n_c;
            for (int64_t k = 0; k < punctured; k++)
                out[k] = 0;
            out += punctured;
            for (int64_t k = 0; k < n_tx; k++) {
                double l = ((0.0 + sigma * g[k]) + (1.0 - 2.0 * bits[k])) * 2.0 / s2;
                double q = rint(l * scale);
                has_nan |= q != q;
                q = q != q ? 0.0 : q;
                out[k] = (int8_t)(q > bound ? bound : (q < -bound ? -bound : q));
            }
        }
    }
    return has_nan ? 2 : 0;
}

/* Decoder-domain blocks (batch, punctured + n_tx), int8 or (is_float) f32,
 * from standard normals noise (batch, n_tx) and transmitted bits
 * (batch, n_tx). Returns -1 where the threads cannot be allocated, 2 where
 * an LLR is NaN, else 0. */
int channel_blocks(const double *noise, const uint8_t *bits, void *out, int is_float,
                   int64_t batch, int64_t n_tx, int64_t punctured, double sigma,
                   double scale, double bound, int64_t slices)
{
    struct channel_args a = {noise, bits, out, is_float, n_tx, punctured, sigma,
                             scale, bound};
    return split(channel_rows, &a, batch, slices, 0);
}
