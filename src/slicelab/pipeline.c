/* The simulator's per-packet passes, the only ones it has: `native` builds
 * them and `simulator` calls them through ctypes. Their bits are pinned by
 * the golden digests of the shipped runs, and the tests check them against
 * the per-packet reference loop `loop_pipeline` and the per-burst
 * `loop_onoff_arrivals`. Built with -ffp-contract=off and no fast-math, so
 * no multiply-add fuses and each sum rounds in the order written here.
 *
 * Each running max is written `b > a ? b : a`, so that it compiles to one
 * maxsd. The running value a is never NaN here, and a new operand b that
 * is NaN (inf - inf) leaves it.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>

/* One link's departures dep (NaN for a drop) from the sorted arrivals t and
 * the packet sizes (bytes) at bytes_per_s; returns whether an overflow
 * episode ran, since without one no packet was dropped.
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
    while (i < n) {
        int64_t j = width < n - i ? i + width : n, k;
        /* at k = i the lag is t[i] itself, and c starts at tx[i] */
        double m = before > t[i] ? before : t[i], c = 0.0;
        for (k = i; k < j; k++) {
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
