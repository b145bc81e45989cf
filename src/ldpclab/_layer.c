/* One layered min-sum iteration over a batch of codewords, each codeword's
 * pass ending with what decoding reads of it (hard decisions, min |L_v|, the
 * count of unsatisfied checks), the parity bits of a range of base rows over
 * a batch of hard decisions (the syndrome and the encoder), and the channel
 * stage from each codeword's own numpy bit generator to its decoder block,
 * compiled at first use by ldpclab.native. The iteration is bit-exact with the
 * numpy engine (ScalarWorkspace.layer), what it reads out with
 * decoder._read_out, the row parities with codec's numpy roll loop, the
 * channel pass with channel's quantize(demap_llr(bpsk_awgn(...))).
 *
 * Layout, all C-contiguous: posteriors lv (batch, n_blocks, z), messages
 * msg (batch, n_edges, z), both of one domain: int8 or f32. The layer pass is
 * written once (LAYER) and instantiated per domain, each with its own
 * storage, scratch and bound and a few small steps; int8 values stay bytes in
 * memory, with only the extrinsic and the fold in int16 scratch. Edge e of
 * base row r lies in [row_start[r], row_start[r + 1]) and couples block
 * cols[e] at circulant shift shifts[e] (already reduced mod z): position k of
 * the row reads lv[cols[e]][(k + shift) mod z], two contiguous runs.
 *
 * Every domain saturates at its channel bound (INT8_SAT and F32_SAT are
 * channel.INT8_MAX and F32_MAX) by one rule: with the extrinsic raw = lv -
 * msg, the check node folds sat(raw), the posterior becomes sat(raw + out),
 * and the message stores out, or where the posterior saturated what it
 * absorbed, sat(raw + out) - raw. The fold reads raw itself: m1 and m2 start
 * at the bound, so a larger magnitude never beats m1 nor lowers m2, and
 * saturating would keep its sign.
 *
 * Per row and codeword: gather each edge's extrinsic, fold (m1, m2, sign,
 * argmin tag) elementwise over z in edge order, scale by beta, then write
 * messages and posteriors back through the same two runs. After its last
 * row a codeword's posteriors are read out while they are still in cache:
 * hard decisions, min |L_v| and the count of unsatisfied checks. A pass skips
 * the codewords its settled mask sets and leaves their posteriors, messages
 * and readout as they were: decoding retires a codeword this way once it has
 * settled.
 *
 * Codewords never interact, so every entry point shares its batch among
 * `slices` threads (split()): the calling thread and slices - 1 pthreads
 * claim codewords one at a time from a shared counter, and the calling thread
 * joins the others before it returns, so no thread outlives a call. All
 * threads' scratch comes from one allocation in the calling thread, each
 * thread's part starting on its own 64-byte line; where a thread cannot be
 * created the others take its codewords. The result is the same for every
 * slice count.
 *
 * The channel pass draws each codeword's normals from its own bit generator
 * through numpy's random_standard_normal_fill, the sampler behind
 * Generator.standard_normal, linked from numpy's libnpyrandom.a: the same
 * stream and the same end state as numpy's draw. No two codewords may share
 * a generator.
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
#define F32_SAT 0x1p64f

/* The work on codeword b of the call described by args. */
typedef int (*slice_fn)(const void *args, int64_t b, void *scratch);

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
        s->status |= s->fn(s->args, b, s->scratch);
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

static inline float sat_f32(float v)
{
    float t = v < F32_SAT ? v : F32_SAT;
    return t > -F32_SAT ? t : -F32_SAT;
}

static inline int16_t abs_i16(int16_t v)
{
    return v < 0 ? -v : v;
}

/* |v| of the fold: fabsf for f32, so -0.0 gives +0.0, as numpy's abs */
#define ABS(v) _Generic((v), float: fabsf, int16_t: abs_i16)(v)

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

struct layer_args {
    void *lv, *msg;
    const uint8_t *settled;
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

/* Each domain's steps: scale, the beta rule on a magnitude; update, the
 * posterior sat(ext + out), with the message into *msg; readout, one
 * codeword's hard decisions lv < 0 and min |lv| over its n posteriors.
 *
 * int8: the extrinsic (|raw| <= 254) stays unclamped in int16, and the
 * message sat(raw + out) - raw lies within +/-127 like every stored value.
 * beta_lut[m] is floor(beta * m) for m in 0..127. */
static inline int16_t i8_scale(const struct layer_args *p, int16_t m)
{
    return (int16_t)p->beta_lut[m];
}

static inline int16_t i8_update(int16_t ext, int16_t out, int16_t *msg)
{
    int16_t upd = sat_i8(ext + out);
    *msg = upd - ext;
    return upd;
}

static double i8_readout(const int8_t *lv, uint8_t *hard, int64_t n)
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

/* f32: beta scales in f32; |raw| stays within 2 * F32_SAT, so no sum
 * overflows. The fold, as int8's, needs no clamp, which kept gcc from
 * vectorizing it. Where the posterior saturated, the message is what it
 * absorbed on top of ext. */
static inline float f32_scale(const struct layer_args *p, float m) { return p->beta * m; }

static inline float f32_update(float ext, float out, float *msg)
{
    float sum = ext + out, upd = sat_f32(sum);
    *msg = upd == sum ? out : upd - ext;
    return upd;
}

/* The readout reads each posterior as its bit pattern, so both loops
 * vectorize: for finite values, and every posterior stays within the bound,
 * |v| orders as the bits below the sign, and v < 0 is a set sign on a
 * nonzero magnitude (-0.0 is not negative). */
static double f32_readout(const float *lv, uint8_t *hard, int64_t n)
{
    const uint32_t *bits = (const uint32_t *)lv, sign = 0x80000000u;
    uint32_t m = 0x7f800000u;
    for (int64_t i = 0; i < n; i++) {
        uint32_t a = bits[i] & (sign - 1);
        m = a < m ? a : m;
    }
    for (int64_t i = 0; i < n; i++)
        hard[i] = ((bits[i] & sign) != 0) & ((bits[i] & (sign - 1)) != 0);
    union { uint32_t u; float f; } margin = {m};
    return margin.f;
}

/* The layer pass of domain D over codeword b of the call: storage
 * type V, scratch type X (the extrinsic, m1 and m2), sign parity and tag type
 * S, bound SAT, and the steps D##_scale, _update and _readout.
 * Then the entry point layer_iteration_D over a batch (see below). */
#define LAYER(D, V, X, S, SAT)                                                          \
    static int layer_##D(const void *args, int64_t b, void *scratch)                  \
    {                                                                                 \
        const struct layer_args *p = args;                                            \
        int64_t z = p->z, n_edges = p->row_start[p->rows];                            \
        const int64_t *row_start = p->row_start, *cols = p->cols, *shifts = p->shifts; \
        /* per row: the extrinsics of up to w_max edges, then the fold's m1, m2,      \
         * sign parity and argmin tag at every position */                            \
        X *x = scratch, *m1 = x + p->w_max * z, *m2 = m1 + z;                         \
        S *sg = (S *)(m2 + z), *tag = sg + z;                                         \
        if (p->settled[b])                                                            \
            return 0;                                                                 \
        V *lvb = (V *)p->lv + b * p->n_blocks * z;                                    \
        V *msgb = (V *)p->msg + b * n_edges * z;                                      \
        for (int64_t r = 0; r < p->rows; r++) {                                       \
            int64_t e0 = row_start[r], w = row_start[r + 1] - e0;                     \
            for (int64_t j = 0; j < w; j++) {                                         \
                const V *src = lvb + cols[e0 + j] * z, *m = msgb + (e0 + j) * z;      \
                X *xj = x + j * z;                                                    \
                int64_t s = shifts[e0 + j];                                           \
                for (int64_t k = 0; k < z - s; k++)                                   \
                    xj[k] = (X)src[k + s] - (X)m[k];                                  \
                for (int64_t k = z - s; k < z; k++)                                   \
                    xj[k] = (X)src[k + s - z] - (X)m[k];                              \
            }                                                                         \
            for (int64_t k = 0; k < z; k++) {                                         \
                m1[k] = m2[k] = SAT;                                                  \
                sg[k] = 0;                                                            \
                tag[k] = -1;                                                          \
            }                                                                         \
            for (S j = 0; j < w; j++) {                                               \
                const X *xj = x + j * z;                                              \
                for (int64_t k = 0; k < z; k++) {                                     \
                    X v = xj[k], a = ABS(v);                                          \
                    S win = a < m1[k];                                                \
                    X loser = win ? m1[k] : a;                                        \
                    m2[k] = loser < m2[k] ? loser : m2[k];                            \
                    m1[k] = win ? a : m1[k];                                          \
                    tag[k] = win ? j : tag[k];                                        \
                    sg[k] ^= v < 0;                                                   \
                }                                                                     \
            }                                                                         \
            for (int64_t k = 0; k < z; k++) {                                         \
                m1[k] = D##_scale(p, m1[k]);                                          \
                m2[k] = D##_scale(p, m2[k]);                                          \
            }                                                                         \
            for (S j = 0; j < w; j++) {                                               \
                V *dst = lvb + cols[e0 + j] * z, *m = msgb + (e0 + j) * z;            \
                X *xj = x + j * z;                                                    \
                int64_t s = shifts[e0 + j];                                           \
                for (int64_t k = 0; k < z; k++) {                                     \
                    /* both magnitudes loaded, then selected: a load under the        \
                     * select compiled to two masked loads, and the f32 pass ran      \
                     * 2% slower (BG1 Z=384, 16 codewords, one Sapphire Rapids        \
                     * core) */                                                       \
                    X raw = xj[k], a1 = m1[k], a2 = m2[k], msg;                       \
                    X mag = tag[k] == j ? a2 : a1;                                    \
                    X out = (sg[k] ^ (raw < 0)) ? -mag : mag;                         \
                    xj[k] = D##_update(raw, out, &msg);                               \
                    m[k] = (V)msg;                                                    \
                }                                                                     \
                for (int64_t k = 0; k < z - s; k++)                                   \
                    dst[k + s] = (V)xj[k];                                            \
                for (int64_t k = z - s; k < z; k++)                                   \
                    dst[k + s - z] = (V)xj[k];                                        \
            }                                                                         \
        }                                                                             \
        int64_t n = p->n_blocks * z;                                                  \
        p->margins[b] = D##_readout(lvb, p->hard + b * n, n);                         \
        p->weights[b] = unsatisfied(p, b, scratch);                                   \
        return 0;                                                                     \
    }                                                                                 \
                                                                                      \
    int layer_iteration_##D(V *lv, V *msg, const uint8_t *settled, uint8_t *hard,     \
                            double *margins, int64_t *weights, int64_t batch,         \
                            int64_t n_blocks, int64_t z, int64_t rows,                \
                            const int64_t *row_start, const int64_t *cols,            \
                            const int64_t *shifts, const int32_t *beta_lut,           \
                            float beta, int64_t slices)                               \
    {                                                                                 \
        struct layer_args a = {lv, msg, settled, hard, margins, weights, n_blocks, z, \
                               rows, max_row_weight(rows, row_start), row_start,      \
                               cols, shifts, beta_lut, beta};                         \
        /* the extrinsics, m1 and m2, then sign parity and tag; the z-byte parity    \
         * row of the unsatisfied-check count reuses the extrinsics */                \
        return split(layer_##D, &a, batch, slices,                                    \
                     (sizeof(X) * (a.w_max + 2) + sizeof(S) * 2) * z);                \
    }

/* One iteration in place over the codewords b of the batch whose settled[b]
 * is 0; the others are not touched. Each codeword's pass ends by reading it
 * out: the uint8 hard decisions lv < 0 into its row of hard
 * (batch, n_blocks, z), min |lv| into margins and the count of unsatisfied
 * checks over the used rows into weights, each at the codeword's own index.
 * int8 scales by beta_lut, f32 by beta. */
LAYER(i8, int8_t, int16_t, int16_t, INT8_SAT)
LAYER(f32, float, float, int32_t, F32_SAT)

struct parity_args {
    const uint8_t *bits;
    uint8_t *par;
    int64_t *weights;
    int64_t n_blocks, z, r0, r1;
    const int64_t *row_start, *cols, *shifts;
};

static int parities(const void *args, int64_t b, void *scratch)
{
    const struct parity_args *a = args;
    (void)scratch;
    const uint8_t *bitsb = a->bits + b * a->n_blocks * a->z;
    int64_t w = 0;
    for (int64_t r = a->r0; r < a->r1; r++)
        w += row_parity(bitsb, a->par + (b * (a->r1 - a->r0) + r - a->r0) * a->z,
                        a->z, r, a->row_start, a->cols, a->shifts);
    a->weights[b] = w;
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

/* numpy's bit generator, opaque here, and the normal sampler
 * Generator.standard_normal runs */
typedef struct bitgen bitgen_t;
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

/* Normals drawn at a time into a thread's scratch, 4 KB, which the LLR loop
 * then reads vectorized. A normal at a time, with the LLR computed after each
 * call, cost 16.3 ns per normal on one Sapphire Rapids core against 14.7-15.3
 * in these chunks and 14.1-14.8 for numpy's draw followed by a separate pass
 * (BG1 Z=384 codewords, int8 and f32). */
#define DRAW 512

struct channel_args {
    bitgen_t *const *rngs;
    const uint8_t *bits;
    void *out;
    int64_t width, n_tx, punctured;
    double sigma, scale, bound;
};

/* Codeword b's decoder block o, punctured + n_tx values of type T: punctured
 * zeros, then each transmitted bit's LLR l in the float64 order of
 * channel.bpsk_awgn and channel.demap_llr, ((0.0 + sigma * g) + (1 - 2b)) * 2
 * / (sigma * sigma), g drawn from the codeword's generator, turned into Q,
 * clipped to +/-bound in float64 and rounded once on the store. A NaN is
 * written as 0 and noted in has_nan. */
#define CHANNEL_ROW(T, Q)                                                               \
    {                                                                                 \
        T *o = (T *)a->out + b * (a->punctured + a->n_tx) + a->punctured;             \
        const uint8_t *bits = a->bits + b * a->n_tx;                                  \
        for (int64_t k = -a->punctured; k < 0; k++)                                   \
            o[k] = 0;                                                                 \
        for (int64_t k0 = 0; k0 < a->n_tx; k0 += DRAW) {                              \
            int64_t n = a->n_tx - k0 < DRAW ? a->n_tx - k0 : DRAW;                    \
            random_standard_normal_fill(a->rngs[b], n, g);                            \
            for (int64_t k = 0; k < n; k++) {                                         \
                double l = ((0.0 + sigma * g[k]) + (1.0 - 2.0 * bits[k0 + k])) * 2.0 / s2; \
                double q = Q;                                                         \
                has_nan |= q != q;                                                    \
                q = q != q ? 0.0 : q;                                                 \
                o[k0 + k] = (T)(q > bound ? bound : (q < -bound ? -bound : q));       \
            }                                                                         \
        }                                                                             \
    }

static int channel_row(const void *args, int64_t b, void *scratch)
{
    const struct channel_args *a = args;
    double sigma = a->sigma, scale = a->scale, bound = a->bound, s2 = sigma * sigma;
    double *g = scratch;
    int has_nan = 0;
    if (a->width == 1)
        CHANNEL_ROW(int8_t, rint(l * scale))
    else if (a->width == 4)
        CHANNEL_ROW(float, l)
    return has_nan;
}

/* The decoder blocks out (batch, punctured + n_tx) of a batch's transmitted
 * bits (batch, n_tx), codeword b's noise drawn from rngs[b]: int8 or f32 by
 * the width of its values (1 or 4 bytes), int8 rint(l * scale), f32 l itself,
 * as channel.quantize. Returns 1 where an LLR is NaN, else 0
 * (or -1, as split()). */
int channel_blocks(bitgen_t *const *rngs, const uint8_t *bits, void *out, int width,
                   int64_t batch, int64_t n_tx, int64_t punctured, double sigma,
                   double scale, double bound, int64_t slices)
{
    struct channel_args a = {rngs, bits, out, width, n_tx, punctured, sigma, scale, bound};
    return split(channel_row, &a, batch, slices, sizeof(double) * DRAW);
}
