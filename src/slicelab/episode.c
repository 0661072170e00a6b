/* One link overflow episode, packet by packet: the arithmetic of
 * simulator._overflow_blocks, which runs it buffer_pkts accepted packets at
 * a time and which the simulator falls back to where this does not build.
 *
 * Writes dep from k on (NaN for a drop) and returns the arrival the episode
 * ends at: the first accepted one that comes at or after the departure
 * before it, or n. On entry dep[k - b:k] holds the b pending departures,
 * none a drop. head walks dep to the oldest of the b pending departures,
 * over the episode's own drops. tie is t + TIE_S, tx the raw transmission
 * times. Built with -ffp-contract=off and no fast-math, so each departure
 * is the one rounded sum prev + tx[i], as in numpy's add.accumulate.
 */
#include <math.h>
#include <stdint.h>

int64_t overflow_episode(const double *t, const double *tie, const double *tx,
                         double *dep, int64_t k, int64_t n, int64_t b)
{
    double prev = dep[k - 1];
    int64_t head = k - b;
    for (int64_t i = k; i < n; i++) {
        if (dep[head] <= tie[i]) {
            if (prev <= t[i])
                return i;
            prev += tx[i];
            dep[i] = prev;
            do
                head++;
            while (isnan(dep[head]));
        } else {
            dep[i] = NAN;
        }
    }
    return n;
}
