/* The simulator's per-packet passes, the only ones it has, and the seeding
 * of every random stream: `native` builds them and slicelab calls them
 * through ctypes, one `run_pipeline` call per simulation, one `expand_bursts`
 * call per on/off stream and one `seed_state` call per seed. Their bits are
 * pinned by the golden digests of the shipped runs, and the tests check them
 * against the per-packet reference loop `loop_pipeline`, the per-burst
 * `loop_onoff_arrivals` and numpy's `SeedSequence`. Built with
 * -ffp-contract=off and no fast-math, so no multiply-add fuses and each sum
 * rounds in the order written here.
 *
 * Each running max is written `b > a ? b : a`, so that it compiles to one
 * maxsd. The running value a is never NaN here, and a new operand b that
 * is NaN (inf - inf) leaves it.
 */
#include <float.h>
#include <math.h>
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

/* nb bursts into out: burst q's counts[q] packets, the k-th of them at
 * k * gap + starts[q]. */
void expand_bursts(const double *starts, const int64_t *counts, int64_t nb, double gap,
                   double *out)
{
    for (int64_t q = 0; q < nb; q++) {
        double s = starts[q];
        for (int64_t k = 0; k < counts[q]; k++)
            *out++ = (double)k * gap + s;
    }
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
