/* The simulator's per-packet passes, the only ones it has, the seeding of
 * every random stream and the drawing of each: `native` builds them,
 * linked with numpy's distribution code, as the CPython extension module
 * `pipeline`, and slicelab calls its entries (at the end of this file),
 * one `run_pipeline` call per simulation, one `seed_state` call per derived
 * seed, and one `draw_arrivals` and one `draw_sizes` call per drawn stream.
 * Each entry takes its arrays as buffers, reads their lengths from them and
 * checks every buffer before the C function it wraps reads or writes it.
 * Their bits are pinned by the golden digests of the shipped runs, and the
 * tests check them against the per-packet reference loop `loop_pipeline`,
 * numpy's `SeedSequence` and `PCG64`, and numpy's Generator drawing each
 * stream in bulk (`numpy_stream`). Built with -ffp-contract=off and no
 * fast-math, so no multiply-add fuses and each sum rounds in the order
 * written here.
 *
 * Each running max is written `b > a ? b : a`, so that it compiles to one
 * maxsd. The running value a is never NaN here, and a new operand b that
 * is NaN (inf - inf) leaves it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* What run_pipeline returns in place of a count of served packets. */
enum { UNSORTED = -1, OVERFLOW = -2, NO_MEMORY = -3, BAD_SIZE = -4 };

/* One link's departures dep (NaN for a drop) from the arrivals t and the
 * packet sizes (bytes) at bytes_per_s; returns whether an overflow episode
 * ran, since without one no packet was dropped, or UNSORTED at the first
 * arrival t[k] that is not at or after t[k - 1], or is NaN, or BAD_SIZE at
 * the first size that is negative or NaN. Both loops test each t[k] and
 * sizes[k] they read first, and between them they read every one.
 *
 * dep is the only queue state. Arrival k finds b packets queued iff
 * dep[k - b] > t[k], so a departure at t frees its slot first. A slot in
 * that range that is no longer pending holds either a departure at or
 * before an earlier arrival (FIFO departures do not decrease) or the NaN
 * of a drop in an episode that ended with the link idle; both compare
 * false. The test leaves tie_s out, so it may see the buffer full too
 * early, never too late.
 *
 * The link runs in windows. A window runs Lindley's recursion from the
 * departure before it, with its running sum of transmission times
 * restarted at its start, and tests each arrival as it goes. The first
 * window is n wide, and one that finds no full buffer doubles the next.
 * An overflow episode starts at the first arrival that finds the buffer
 * full, and is followed by a window `restart` wide. In the episode, arrival
 * k is accepted iff the departure b accepted packets back is at most
 * t[k] + tie_s, so a departure at most tie_s after an arrival leaves first
 * but still delays the arrival's start. head walks dep to the oldest of
 * the b pending departures, over the episode's own drops; on entry
 * dep[k - b:k] holds them, none a drop. The link never idles until the
 * episode ends, at the first accepted arrival that comes at or after the
 * departure before it, or at n; so each departure is prev + tx.
 */
int64_t link_pass(const double *t, const double *sizes, double bytes_per_s, double *dep,
                  int64_t n, int64_t b, int64_t restart, double tie_s)
{
    int64_t blocked = 0, i = 0, width = n;
    double before = NAN;  /* dep[i - 1]; NaN at the start or after a drop */
    double last = -INFINITY;  /* the last arrival tested */
    while (i < n) {
        int64_t j = width < n - i ? i + width : n, k;
        /* at k = i the lag is t[i] itself, and c starts at tx[i] */
        double m = before > t[i] ? before : t[i], c = 0.0;
        for (k = i; k < j; k++) {
            if (!(t[k] >= last))
                return UNSORTED;
            if (!(sizes[k] >= 0.0))
                return BAD_SIZE;
            last = t[k];
            double lag = t[k] - c;
            m = lag > m ? lag : m;
            c += sizes[k] / bytes_per_s;
            dep[k] = m + c;
            if (k >= b && dep[k - b] > t[k])
                break;
        }
        if (k == j) {
            i = j;
            width *= 2;
            before = dep[i - 1];
            continue;
        }
        double prev = dep[k - 1];
        int64_t head = k - b;
        blocked = 1;
        for (i = n; k < n; k++) {
            if (!(t[k] >= last))
                return UNSORTED;
            if (!(sizes[k] >= 0.0))
                return BAD_SIZE;
            last = t[k];
            if (dep[head] <= t[k] + tie_s) {
                if (prev <= t[k]) {
                    i = k;
                    before = dep[i - 1];
                    break;
                }
                prev += sizes[k] / bytes_per_s;
                dep[k] = prev;
                do
                    head++;
                while (isnan(dep[head]));
            } else {
                dep[k] = NAN;
            }
        }
        width = restart;
    }
    return blocked;
}

/* The server's delays (ms) into out, which may be t: Lindley's recursion
 * over the link departures t at proc seconds a packet, less each creation
 * time, plus prop_s, times 1000. Returns whether a delay is not finite. */
int64_t server_pass(const double *t, const double *created, double proc, double prop_s,
                    double *out, int64_t n)
{
    /* at k = 0 the lag is t[0] - 0 * proc: t[0] itself, or NaN */
    double m = n ? t[0] : 0.0;
    int64_t overflow = 0;
    for (int64_t k = 0; k < n; k++) {
        double lag = t[k] - (double)k * proc;
        m = lag > m ? lag : m;
        double d = ((m + (double)(k + 1) * proc - created[k]) + prop_s) * 1000.0;
        overflow |= !(fabs(d) <= DBL_MAX);
        out[k] = d;
    }
    return overflow;
}

/* One slice's pipeline: `edges` links in series, link e at bps[e] bits/s
 * with a buffer of min(b, its packets), then the server at proc seconds a
 * packet. t and sizes are the n offered packets' arrivals and sizes; neither
 * is written to. served[k] becomes whether packet k passes every link, and
 * out[:m] the delays (ms, plus prop_s) of the m packets that do, in arrival
 * order. Returns m, or UNSORTED or BAD_SIZE (from the first link) or
 * OVERFLOW (a delay that is not finite) or NO_MEMORY.
 *
 * Each link writes its departures to out when an even number of links
 * follow it, else to spare, so the last link's land in out and the server
 * writes its delays over them. After a link that drops a packet, its
 * survivors are compacted: their departures in place, and their creation
 * times and, unless it is the last link, their sizes into scratch, which
 * is made at the first drop. A departure never decreases, so no later link
 * finds its input out of order (for sizes >= 0).
 */
int64_t run_pipeline(const double *t, const double *sizes, const double *bps, int64_t edges,
                     int64_t n, int64_t b, int64_t restart, double tie_s, double proc,
                     double prop_s, double *out, uint8_t *served)
{
    const double *times = t, *created = t;
    double *spare = NULL, *scratch = NULL;
    int64_t m = n, code = NO_MEMORY;
    memset(served, 1, n);
    if (edges > 1 && n && !(spare = malloc(n * sizeof *spare)))
        goto done;
    for (int64_t e = 0; e < edges; e++) {
        double *dep = (edges - e) % 2 ? out : spare;
        /* bps / 8 is exact, so a transmission time is size * 8 / bps to the bit */
        code = link_pass(times, sizes, bps[e] / 8.0, dep, m, b < m ? b : m, restart, tie_s);
        if (code < 0)
            goto done;
        if (code) {
            if (!scratch && !(scratch = malloc((edges > 1 ? 2 : 1) * n * sizeof *scratch))) {
                code = NO_MEMORY;
                goto done;
            }
            double *kept = scratch, *kept_sizes = scratch + n;
            int64_t j = 0, s = 0;
            for (int64_t k = 0; k < m; k++, s++) {
                while (!served[s])  /* s: the offered packet that is k-th here */
                    s++;
                if (isnan(dep[k])) {
                    served[s] = 0;
                    continue;
                }
                dep[j] = dep[k];
                kept[j] = created[k];
                if (e < edges - 1)  /* the server reads no size */
                    kept_sizes[j] = sizes[k];
                j++;
            }
            m = j, created = kept, sizes = kept_sizes;
        }
        times = dep;
    }
    code = server_pass(times, created, proc, prop_s, out, m) ? OVERFLOW : m;
done:
    free(spare);
    free(scratch);
    return code;
}

/* numpy's SeedSequence, word for word: O'Neill's seed_seq_fe ("PCG",
 * HMC-CS-2014-0905) with numpy's constants and a pool of POOL words. */
enum { POOL = 4 };
static const uint32_t INIT_A = 0x43b0d7e5, MULT_A = 0x931e8875, INIT_B = 0x8b51f9dd,
                      MULT_B = 0x58f38ded, MIX_L = 0xca01f9dd, MIX_R = 0x4973f715;

/* value hashed by the running constant *hash, which then moves on by mult */
static uint32_t hashmix(uint32_t value, uint32_t *hash, uint32_t mult)
{
    value ^= *hash;
    *hash *= mult;
    value *= *hash;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_L * x - MIX_R * y;
    return r ^ (r >> 16);
}

/* The words SeedSequence(entropy).generate_state(n_words, uint32) makes of
 * the n 32-bit entropy words, into out. Returns word 0, which does not
 * depend on n_words, so that one word needs no out (n_words 0, out NULL).
 * The entropy fills the pool, zeros after it, and each pool word is mixed
 * into every other; each entropy word beyond the pool is then mixed into
 * every pool word. The state cycles over the pool. */
uint32_t seed_state(const uint32_t *entropy, int64_t n, uint32_t *out, int64_t n_words)
{
    uint32_t pool[POOL], hash = INIT_A;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &hash, MULT_A);
    for (int s = 0; s < POOL; s++)
        for (int d = 0; d < POOL; d++)
            if (s != d)
                pool[d] = mix(pool[d], hashmix(pool[s], &hash, MULT_A));
    for (int64_t s = POOL; s < n; s++)
        for (int d = 0; d < POOL; d++)
            pool[d] = mix(pool[d], hashmix(entropy[s], &hash, MULT_A));
    hash = INIT_B;
    for (int64_t k = 0; k < n_words; k++)
        out[k] = hashmix(pool[k % POOL], &hash, MULT_B);
    hash = INIT_B;
    return hashmix(pool[0], &hash, MULT_B);
}

/* A slice's random stream, drawn whole: numpy's PCG64 ported, seeded as
 * numpy's PCG64(SeedSequence(entropy)) is, drives numpy's own distribution
 * code, linked from the static library numpy ships for C extensions
 * (numpy/random/lib/libnpyrandom.a), so each draw is numpy's to the bit by
 * construction. numpy's headers are not on the build's include path, so
 * the few declarations used are repeated here as numpy/random/bitgen.h and
 * distributions.h have them. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_exponential(bitgen_t *bitgen_state);
void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_bounded_uint32_fill(bitgen_t *bitgen_state, uint32_t off, uint32_t rng,
                                intptr_t cnt, bool use_masked, uint32_t *out);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);

/* gcc's and clang's 128-bit integer on 64-bit hosts, which numpy's PCG64
 * uses where the compiler has one */
typedef unsigned __int128 u128;

/* PCG64 (O'Neill, HMC-CS-2014-0905) as numpy runs it: a 128-bit LCG whose
 * output is the XSL-RR of the state after each step. These are the 40
 * bytes a caller keeps between `draw_arrivals` and `draw_sizes`: the state
 * and the increment, each as its high and low words, and numpy's
 * has_uint32 buffer, the high half of the last 64-bit output of which a
 * 32-bit draw took only the low half. */
typedef struct {
    uint64_t state[2], inc[2];
    uint32_t has_uint32, uinteger;
} pcg64_t;

static const u128 PCG_MULT = (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;

static u128 joined(const uint64_t *words)
{
    return (u128)words[0] << 64 | words[1];
}

static void split(u128 value, uint64_t *words)
{
    words[0] = (uint64_t)(value >> 64);
    words[1] = (uint64_t)value;
}

static void pcg64_step(pcg64_t *r)
{
    split(joined(r->state) * PCG_MULT + joined(r->inc), r->state);
}

static uint64_t pcg64_next64(void *st)
{
    pcg64_t *r = st;
    pcg64_step(r);
    u128 s = joined(r->state);
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return x >> rot | x << (-rot & 63);
}

static uint32_t pcg64_next32(void *st)
{
    pcg64_t *r = st;
    if (r->has_uint32) {
        r->has_uint32 = 0;
        return r->uinteger;
    }
    uint64_t next = pcg64_next64(r);
    r->has_uint32 = 1;
    r->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

static bitgen_t bitgen_of(pcg64_t *r)
{
    return (bitgen_t){r, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
}

/* numpy's PCG64(SeedSequence(entropy)): the sequence's first four 64-bit
 * words, each two 32-bit words with the low one first, are the initial
 * state (words 0 and 1, the high one first) and the stream (words 2 and
 * 3), set as numpy's pcg_setseq_128_srandom_r sets them. */
static void pcg64_seed(pcg64_t *r, const uint32_t *entropy, int64_t n)
{
    uint32_t half[8];
    uint64_t words[4];
    seed_state(entropy, n, half, 8);
    for (int i = 0; i < 4; i++)
        words[i] = (uint64_t)half[2 * i + 1] << 32 | half[2 * i];
    r->state[0] = r->state[1] = 0;
    split(joined(words + 2) << 1 | 1, r->inc);
    pcg64_step(r);
    split(joined(r->state) + joined(words), r->state);
    pcg64_step(r);
    r->has_uint32 = r->uinteger = 0;
}

/* The n first outputs of the stream entropy seeds into out: out[k] the next
 * 64-bit output where wide[k], else the next 32-bit one. Only the tests
 * call it, to check the port against numpy's PCG64. */
void pcg64_outputs(const uint32_t *entropy, int64_t n_entropy, const uint8_t *wide,
                   uint64_t *out, int64_t n)
{
    pcg64_t r;
    pcg64_seed(&r, entropy, n_entropy);
    for (int64_t k = 0; k < n; k++)
        out[k] = wide[k] ? pcg64_next64(&r) : pcg64_next32(&r);
}

/* numpy's Generator draws a stream's standard exponentials E in chunks,
 * each a fill of `size` draws. Drawn BATCH at a time they are the same
 * draws, so a chunk is read through this window, and no array holds it. */
enum { BATCH = 256 };
typedef struct {
    bitgen_t *bg;
    int64_t left;  /* the chunk's draws not yet made */
    int next, end;  /* the window's draws not yet read: e[next:end] */
    double e[BATCH];
} chunk_t;

static void chunk_start(chunk_t *c, int64_t size)
{
    c->left = size;
    c->next = c->end = 0;
}

/* the chunk's next draw; a caller reads no more than its size */
static double chunk_read(chunk_t *c)
{
    if (c->next == c->end) {
        c->end = c->left < BATCH ? (int)c->left : BATCH;
        random_standard_exponential_fill(c->bg, c->end, c->e);
        c->left -= c->end;
        c->next = 0;
    }
    return c->e[c->next++];
}

/* the chunk's draws not yet made, made and left unread, as numpy makes them */
static void chunk_finish(chunk_t *c)
{
    while (c->left > 0) {
        int n = c->left < BATCH ? (int)c->left : BATCH;
        random_standard_exponential_fill(c->bg, n, c->e);
        c->left -= n;
    }
}

/* more draws than one chunk of numpy's can take: their doubles would not
 * fit in memory */
static const double MAX_CHUNK = 0x1p50;

/* arrival a, the count-th, into out if it has room; the count after it */
static int64_t put(double *out, int64_t capacity, int64_t count, double a)
{
    if (count < capacity)
        out[count] = a;
    return count + 1;
}

/* Poisson arrivals: t += scale * E from t = 0 while t is before the
 * horizon. numpy draws E in chunks of m, and a chunk's sum starts from the
 * last chunk's final time; every draw of the chunk that reaches the
 * horizon is made, so the sizes are drawn from where numpy draws them. */
static int64_t poisson_arrivals(bitgen_t *bg, double rate, double horizon, double *out,
                                int64_t capacity)
{
    double scale = 1.0 / rate, t = 0.0, want = rate * horizon * 1.2;
    if (!(want < MAX_CHUNK))
        return NO_MEMORY;
    int64_t m = (int64_t)want + 16, count = 0;
    m = m > 64 ? m : 64;
    chunk_t c = {.bg = bg};
    while (t < horizon) {
        chunk_start(&c, m);
        double s = t;  /* the last chunk's final time, carried in */
        for (int64_t i = 0; i < m; i++) {
            s += scale * chunk_read(&c);
            if (s < horizon)
                count = put(out, capacity, count, s);
        }
        t = s;
    }
    return count;
}

/* On/off arrivals from one standard-exponential stream E, drawn in chunks
 * of m bursts as numpy draws them: a leading off time when off_mean > 0,
 * then per burst a size n = ceil(E / -log1p(-p)) (one packet when p is 1,
 * though E is drawn) and, when off_mean > 0, an off time off_mean * E. A
 * burst starts at the sum of the steps n * gap + off time before it,
 * summed in order, and its packet k arrives at k * gap + start. Arrivals
 * never decrease, so the expansion of a burst ends at its first arrival at
 * or past the horizon, and the stream ends at the first burst that starts
 * there. Every draw of the chunk that reaches the horizon is made, as in
 * the Poisson stream. */
static int64_t onoff_arrivals(bitgen_t *bg, double burst_len, double gap, double off_mean,
                              double horizon, double *out, int64_t capacity)
{
    /* E / -log1p(-p) is -E / log1p(-p) to the bit: only the sign moved */
    double p = 1.0 / burst_len, per_packet = -log1p(-p);
    int64_t per_burst = off_mean > 0 ? 2 : 1, count = 0;
    double t = off_mean > 0 ? off_mean * random_standard_exponential(bg) : 0.0;
    chunk_t c = {.bg = bg};
    while (t < horizon) {
        double want = (horizon - t) / (burst_len * gap + off_mean) * 1.1;
        if (!(want < MAX_CHUNK))
            return NO_MEMORY;
        int64_t m = (int64_t)want + 16;
        chunk_start(&c, m * per_burst);
        for (int64_t i = 0; i < m; i++) {
            if (t >= horizon)
                break;
            double e = chunk_read(&c), n = p < 1.0 ? ceil(e / per_packet) : 1.0;
            for (int64_t k = 0; k < n; k++) {
                double a = (double)k * gap + t;
                if (a >= horizon)
                    break;
                count = put(out, capacity, count, a);
            }
            double step = n * gap;
            if (off_mean > 0)
                step += off_mean * chunk_read(&c);
            t += step;
        }
        chunk_finish(&c);
    }
    return count;
}

/* The arrivals (s) before the horizon of the stream entropy seeds, into
 * out[:capacity]: on/off arrivals (rate unread) where onoff, else Poisson
 * arrivals at rate a second (burst_len, gap and off_mean unread). Returns
 * their count, or NO_MEMORY. A count above capacity writes only the first
 * capacity arrivals, and the caller draws again with room for all, which
 * gives the same stream. rng becomes the stream's state after the
 * arrivals, from which `draw_sizes` draws the sizes. */
int64_t draw_arrivals(const uint32_t *entropy, int64_t n_entropy, int64_t onoff, double rate,
                      double burst_len, double gap, double off_mean, double horizon,
                      double *out, int64_t capacity, pcg64_t *rng)
{
    pcg64_seed(rng, entropy, n_entropy);
    bitgen_t bg = bitgen_of(rng);
    return onoff ? onoff_arrivals(&bg, burst_len, gap, off_mean, horizon, out, capacity)
                 : poisson_arrivals(&bg, rate, horizon, out, capacity);
}

/* n packet sizes (bytes) into out, drawn from the stream state rng as
 * numpy's Generator draws them: where exponential, mean * E clipped to
 * [lo, hi]; else whole sizes uniform on [lo, hi] by numpy's bounded fill
 * of int32 below hi = 2**31 - 1 (the values int64 draws, from half the
 * output bits) and of int64 from there. The integers are drawn into out's
 * own bytes and each is then widened into its double: the int32s from the
 * last, since double k covers int32s 2k and 2k + 1. */
void draw_sizes(pcg64_t *rng, int64_t exponential, int64_t lo, int64_t hi, double mean,
                double *out, int64_t n)
{
    bitgen_t bg = bitgen_of(rng);
    if (exponential) {
        double low = (double)lo, high = (double)hi;
        random_standard_exponential_fill(&bg, n, out);
        for (int64_t k = 0; k < n; k++) {
            double size = mean * out[k];
            size = size > low ? size : low;
            out[k] = size < high ? size : high;
        }
    } else if (hi < INT32_MAX) {
        random_bounded_uint32_fill(&bg, (uint32_t)lo, (uint32_t)(hi - lo), n, false,
                                   (uint32_t *)out);
        for (int64_t k = n - 1; k >= 0; k--) {
            int32_t size;
            memcpy(&size, (char *)out + k * sizeof size, sizeof size);
            out[k] = (double)size;
        }
    } else {
        random_bounded_uint64_fill(&bg, (uint64_t)lo, (uint64_t)hi - (uint64_t)lo, n, false,
                                   (uint64_t *)out);
        for (int64_t k = 0; k < n; k++) {
            int64_t size;
            memcpy(&size, (char *)out + k * sizeof size, sizeof size);
            out[k] = (double)size;
        }
    }
}

/* The module's entries. Each takes its arrays as buffers and its other
 * arguments as Python ints and floats, in the order of the C function it
 * wraps less the counts, which it reads from the buffers' lengths: n from
 * the arrivals, the edge count from the link rates, the room from out and
 * the entropy's word count from its bytes. Before the C function reads or
 * writes any buffer, the entry checks each: its items' format and size,
 * that it is C-contiguous and aligned to its items, that it is writable
 * where it is written, and its length. A failed check raises TypeError (not a buffer, or items of
 * another type) or ValueError (the rest), naming the entry and the
 * argument, and nothing is written. The stream state passes as a buffer of
 * at least 40 bytes, copied into and out of a pcg64_t, so that its bytes
 * need no alignment. */

/* A buffer argument: its position and name, the struct formats its items
 * may have, one character each, their size, and whether it is written. */
typedef struct {
    int at;
    const char *name, *formats;
    Py_ssize_t itemsize;
    bool output;
} buffer_arg;

#define DOUBLES(at, name, output) {at, name, "d", sizeof(double), output}
#define BYTES(at, name, output) {at, name, "B", 1, output}

/* view of the argument spec, or -1 with the error set and no view held */
static int take(const char *entry, PyObject *const *args, const buffer_arg *spec,
                Py_buffer *view)
{
    PyObject *obj = args[spec->at];
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "%s: %s must be a buffer, not %.200s", entry, spec->name,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    const char *format = view->format ? view->format : "B";
    if (view->itemsize != spec->itemsize || !format[0] || format[1]
        || !strchr(spec->formats, format[0]))
        PyErr_Format(PyExc_TypeError, "%s: %s must hold %zd-byte items of format %s'%s', "
                     "not %zd-byte items of format '%s'", entry, spec->name, spec->itemsize,
                     spec->formats[1] ? "one of " : "", spec->formats, view->itemsize, format);
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "%s: %s must be C-contiguous", entry, spec->name);
    else if ((uintptr_t)view->buf % (uintptr_t)spec->itemsize)
        PyErr_Format(PyExc_ValueError, "%s: %s must be aligned to its %zd-byte items", entry,
                     spec->name, spec->itemsize);
    else if (spec->output && view->readonly)
        PyErr_Format(PyExc_ValueError, "%s: %s must be writable, not read-only", entry,
                     spec->name);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

/* the views of an entry's n buffer arguments; where one fails its check,
 * -1 with the error set and none held */
static int take_all(const char *entry, PyObject *const *args, const buffer_arg *specs, int n,
                    Py_buffer *views)
{
    for (int k = 0; k < n; k++) {
        if (take(entry, args, &specs[k], &views[k]) < 0) {
            while (k-- > 0)
                PyBuffer_Release(&views[k]);
            return -1;
        }
    }
    return 0;
}

static void release_all(Py_buffer *views, int n)
{
    for (int k = 0; k < n; k++)
        PyBuffer_Release(&views[k]);
}

static Py_ssize_t items(const Py_buffer *view)
{
    return view->len / view->itemsize;
}

static int arity(const char *entry, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", entry, want, nargs);
    return -1;
}

/* args[at] as a count into *value, or -1 with the error set */
static int count_arg(const char *entry, PyObject *const *args, int at, const char *name,
                     int64_t *value)
{
    long long v = PyLong_AsLongLong(args[at]);
    if (v == -1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s: %s must be an int, not %.200s", entry, name,
                         Py_TYPE(args[at])->tp_name);
        }
        return -1;
    }
    *value = v;
    return 0;
}

/* args[at] as a double into *value, or -1 with the error set */
static int real_arg(const char *entry, PyObject *const *args, int at, const char *name,
                    double *value)
{
    double v = PyFloat_AsDouble(args[at]);
    if (v == -1.0 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s: %s must be a real number, not %.200s", entry,
                         name, Py_TYPE(args[at])->tp_name);
        }
        return -1;
    }
    *value = v;
    return 0;
}

/* whether a buffer of n items is at least least long, else ValueError */
static bool long_enough(const char *entry, const char *name, Py_ssize_t n, Py_ssize_t least,
                        const char *unit)
{
    if (n >= least)
        return true;
    PyErr_Format(PyExc_ValueError, "%s: %s must hold at least %zd %s, got %zd", entry, name,
                 least, unit, n);
    return false;
}

/* whether the entropy's bytes are a whole number of 32-bit words, read
 * where they lie, else ValueError */
static bool whole_words(const char *entry, const Py_buffer *entropy)
{
    if (entropy->len % sizeof(uint32_t))
        PyErr_Format(PyExc_ValueError, "%s: entropy must be a whole number of 32-bit words, "
                     "got %zd bytes", entry, entropy->len);
    else if ((uintptr_t)entropy->buf % sizeof(uint32_t))
        PyErr_Format(PyExc_ValueError, "%s: entropy must be aligned to its 32-bit words",
                     entry);
    else
        return true;
    return false;
}

/* run_pipeline(t, sizes, bps, b, restart, tie_s, proc, prop_s, out,
 * served): n is len(t) and edges len(bps); sizes must be as long as t, out
 * and served at least as long, and b and restart at least 1 (a link reads
 * dep[k - b], and a window of 0 packets would never end). */
static PyObject *py_run_pipeline(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char entry[] = "run_pipeline";
    static const buffer_arg specs[] = {
        DOUBLES(0, "t", false), DOUBLES(1, "sizes", false), DOUBLES(2, "bps", false),
        DOUBLES(8, "out", true), {9, "served", "?B", 1, true}};
    Py_buffer v[5];
    int64_t b, restart;
    double tie_s, proc, prop_s;
    if (arity(entry, nargs, 10) < 0 || count_arg(entry, args, 3, "b", &b) < 0
        || count_arg(entry, args, 4, "restart", &restart) < 0
        || real_arg(entry, args, 5, "tie_s", &tie_s) < 0
        || real_arg(entry, args, 6, "proc", &proc) < 0
        || real_arg(entry, args, 7, "prop_s", &prop_s) < 0)
        return NULL;
    if (b < 1 || restart < 1) {
        PyErr_Format(PyExc_ValueError, "%s: %s must be at least 1, got %lld", entry,
                     b < 1 ? "b" : "restart", (long long)(b < 1 ? b : restart));
        return NULL;
    }
    if (take_all(entry, args, specs, 5, v) < 0)
        return NULL;
    Py_ssize_t n = items(&v[0]);
    if (items(&v[1]) != n) {
        PyErr_Format(PyExc_ValueError, "%s: sizes must be as long as t, %zd items, got %zd",
                     entry, n, items(&v[1]));
        release_all(v, 5);
        return NULL;
    }
    if (!long_enough(entry, "out", items(&v[3]), n, "items")
        || !long_enough(entry, "served", items(&v[4]), n, "items")) {
        release_all(v, 5);
        return NULL;
    }
    int64_t m = run_pipeline(v[0].buf, v[1].buf, v[2].buf, items(&v[2]), n, b, restart, tie_s,
                             proc, prop_s, v[3].buf, v[4].buf);
    release_all(v, 5);
    return PyLong_FromLongLong(m);
}

/* seed_state(entropy, out): out None, or the uint32 buffer whose length is
 * n_words. Returns word 0. */
static PyObject *py_seed_state(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char entry[] = "seed_state";
    static const buffer_arg specs[] = {BYTES(0, "entropy", false),
                                       {1, "out", "I", sizeof(uint32_t), true}};
    Py_buffer v[2];
    if (arity(entry, nargs, 2) < 0)
        return NULL;
    int taken = args[1] == Py_None ? 1 : 2;
    if (take_all(entry, args, specs, taken, v) < 0)
        return NULL;
    if (!whole_words(entry, &v[0])) {
        release_all(v, taken);
        return NULL;
    }
    uint32_t first = seed_state(v[0].buf, v[0].len / (Py_ssize_t)sizeof(uint32_t),
                                taken == 2 ? v[1].buf : NULL, taken == 2 ? items(&v[1]) : 0);
    release_all(v, taken);
    return PyLong_FromUnsignedLong(first);
}

/* draw_arrivals(entropy, onoff, rate, burst_len, gap, off_mean, horizon,
 * out, rng): the room is len(out); rng, at least 40 bytes, becomes the
 * stream's state after the arrivals. */
static PyObject *py_draw_arrivals(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char entry[] = "draw_arrivals";
    static const buffer_arg specs[] = {BYTES(0, "entropy", false), DOUBLES(7, "out", true),
                                       BYTES(8, "rng", true)};
    Py_buffer v[3];
    int64_t onoff;
    double rate, burst_len, gap, off_mean, horizon;
    if (arity(entry, nargs, 9) < 0 || count_arg(entry, args, 1, "onoff", &onoff) < 0
        || real_arg(entry, args, 2, "rate", &rate) < 0
        || real_arg(entry, args, 3, "burst_len", &burst_len) < 0
        || real_arg(entry, args, 4, "gap", &gap) < 0
        || real_arg(entry, args, 5, "off_mean", &off_mean) < 0
        || real_arg(entry, args, 6, "horizon", &horizon) < 0
        || take_all(entry, args, specs, 3, v) < 0)
        return NULL;
    if (!whole_words(entry, &v[0])
        || !long_enough(entry, "rng", v[2].len, sizeof(pcg64_t), "bytes")) {
        release_all(v, 3);
        return NULL;
    }
    pcg64_t rng;
    int64_t count = draw_arrivals(v[0].buf, v[0].len / (Py_ssize_t)sizeof(uint32_t), onoff,
                                  rate, burst_len, gap, off_mean, horizon, v[1].buf,
                                  items(&v[1]), &rng);
    memcpy(v[2].buf, &rng, sizeof rng);
    release_all(v, 3);
    return PyLong_FromLongLong(count);
}

/* draw_sizes(rng, exponential, lo, hi, mean, out): n is len(out); rng, at
 * least 40 bytes, is the state `draw_arrivals` left, and moves on. */
static PyObject *py_draw_sizes(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char entry[] = "draw_sizes";
    static const buffer_arg specs[] = {BYTES(0, "rng", true), DOUBLES(5, "out", true)};
    Py_buffer v[2];
    int64_t exponential, lo, hi;
    double mean;
    if (arity(entry, nargs, 6) < 0
        || count_arg(entry, args, 1, "exponential", &exponential) < 0
        || count_arg(entry, args, 2, "lo", &lo) < 0 || count_arg(entry, args, 3, "hi", &hi) < 0
        || real_arg(entry, args, 4, "mean", &mean) < 0 || take_all(entry, args, specs, 2, v) < 0)
        return NULL;
    if (!long_enough(entry, "rng", v[0].len, sizeof(pcg64_t), "bytes")) {
        release_all(v, 2);
        return NULL;
    }
    pcg64_t rng;
    memcpy(&rng, v[0].buf, sizeof rng);
    draw_sizes(&rng, exponential, lo, hi, mean, v[1].buf, items(&v[1]));
    memcpy(v[0].buf, &rng, sizeof rng);
    release_all(v, 2);
    Py_RETURN_NONE;
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef ENTRIES[] = {
    ENTRY(run_pipeline, "run_pipeline(t, sizes, bps, b, restart, tie_s, proc, prop_s, out, "
                        "served): one slice's links and server; the packets served"),
    ENTRY(seed_state, "seed_state(entropy, out): SeedSequence(entropy)'s words into out "
                      "(or None); word 0"),
    ENTRY(draw_arrivals, "draw_arrivals(entropy, onoff, rate, burst_len, gap, off_mean, "
                         "horizon, out, rng): a stream's arrivals; their count"),
    ENTRY(draw_sizes, "draw_sizes(rng, exponential, lo, hi, mean, out): a stream's sizes"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef MODULE = {
    PyModuleDef_HEAD_INIT,
    .m_name = "pipeline",
    .m_doc = "slicelab's per-packet passes, seeding and stream draws (pipeline.c)",
    .m_methods = ENTRIES,
};

PyMODINIT_FUNC PyInit_pipeline(void)
{
    return PyModuleDef_Init(&MODULE);
}
