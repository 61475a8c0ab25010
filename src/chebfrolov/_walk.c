/* Table-driven, resumable traversal of the lattice points in a box.
 *
 * Built on first use by chebfrolov.enumeration (cc -O2 -ffp-contract=off)
 * and called through ctypes.  One library serves every level n and ladder:
 * both arrive as arguments.  The walk fixes k_1..k_{d-1} in lexicographic
 * order; for each prefix the innermost coordinate k_d ranges over an integer
 * run [lo, hi], which goes to one of two leaves:
 *
 *   count  (K == NULL)  adds hi - lo + 1 per run and returns the total;
 *   fill   (K != NULL)  writes up to `size` rows of K (int64) and X (double),
 *                       the images from the last butterfly chain, and
 *                       returns how many it wrote.
 *
 * A point is in the box iff its image x (the one apply_generator computes)
 * has lower <= x <= upper.  A range takes the integers within slack =
 * SLACK (1 + max|corner|) of its bounds, which carry rounding; an end of a
 * k_d run nearer than that to its bound is dropped until its image is in
 * the box.  Rounding is monotone, so the k_d with images in the box are one
 * interval: the trimmed run, which both leaves take.  SLACK = 2^-50, 8 unit
 * roundoffs u, is a measured margin, not a proven bound: on face boxes
 * [Gk, Gk], [Gk, Gk + 1], [Gk - 1, Gk] at d = 2..64, |k| <= 1e14, points in
 * the box lay at most 2.6u (1 + max|corner|) outside a computed bound, and
 * 2u missed some.  The tests hold it against a reference with 16 times the
 * slack.  Far from the origin the slack widens ranges by whole integers and
 * the search tree opens (a d = 16 box of side 3 near k = 1e14 did not end),
 * so corners beyond CORNER_LIMIT = 2^48, where it would pass 1/4, are refused
 * unless the box is empty (lower > upper in some coordinate).
 *
 * Every other floating-point operation is the one the reference recursion
 * makes, in the same order: the clamps take `x > y ? x : y` (or `<`) and
 * then divide by the ladder diagonal, means are (u + v) / 2.0, and merges
 * are prod = D*y; a + prod; a - prod.  Contracting them to fused multiply-
 * adds would change the last bits, hence -ffp-contract=off (and never
 * -ffast-math).
 *
 * There is no static state.  Everything lives in the caller's buffer of
 * walk_state_len(n) eight-byte slots, zero-initialised except for the box:
 *
 *   [0, d)             lower corner  = b, level n
 *   [d, 2d)            upper corner  = g, level n
 *   [2d, (n+2)d)       b, levels 0..n-1   lower bounds of partial images
 *   [(n+2)d, (2n+2)d)  g, levels 0..n-1   upper bounds
 *   [(2n+2)d, (3n+3)d) a, levels 0..n     partial images
 *   then int64:        started, depth, k[0..d], end[0..d]
 *
 * Level-L slot s covers the flat indices [s 2^L, (s+1) 2^L).  `depth` is
 * the coordinate whose range is being walked (0 once the walk is done, d
 * while a fill is inside a run), k[i] its current value and end[i] the last
 * one, so a fill stopped by a full buffer resumes where it stopped.
 */
#include <math.h>
#include <stdint.h>

/* Coordinates beyond +-2^62 are refused, checked on the doubles before any
 * cast; 2^62 is exact as a double, and a run length (up to 2^63 + 1) still
 * fits in an unsigned 64-bit integer. */
#define K_LIMIT 4611686018427387904.0

#define SLACK 0x1p-50 /* the slack per unit of 1 + max|corner| (see above) */
#define CORNER_LIMIT 0x1p48
enum { WALK_RANGE = -1, WALK_OVERFLOW = -2 };

int64_t walk_state_len(int n)
{
    return ((int64_t)3 * n + 5) * ((int64_t)1 << n) + 4;
}

/* Butterfly merges refreshing the partial images once k_i (i even) is set:
 * with i = 2^r p, p odd, level j = 1..r pairs the two 2^(j-1)-blocks ending
 * at i and maps (A, Y) to (A + D Y, A - D Y), D the level j-1 diagonal.  For
 * i = d this is the chain that finishes an image. */
static void merge(double *const *a, const double *const *D, int64_t i, int r)
{
    for (int j = 1; j <= r; j++) {
        const int64_t w = (int64_t)1 << (j - 1), mid = i - w;
        const double *src = a[j - 1], *dj = D[j - 1];
        double *dst = a[j];
        for (int64_t t = mid - w; t < mid; t++) {
            const double prod = dj[t - mid + w] * src[t + w];
            dst[t] = src[t] + prod;
            dst[t + w] = src[t] - prod;
        }
    }
}

/* Is the image of k_1..k_{d-1} and k_d = t in the box (corners s, s + d)?
 * Leaves the image in a[n]. */
static int inside(double *const *a, const double *const *D, int n, int64_t t, const double *s)
{
    const int64_t d = (int64_t)1 << n;
    a[0][d - 1] = (double)t;
    merge(a, D, d, n);
    for (int64_t f = 0; f < d; f++)
        if (!(a[n][f] >= s[f] && a[n][f] <= s[d + f]))
            return 0;
    return 1;
}

/* The depth after the range [lo, hi] of k_{i+1} is opened: i + 1, or i if
 * the range is empty, or WALK_RANGE if it reaches past the limit (or is
 * NaN).  k_{i+1} starts one below its range. */
static int64_t descend(int64_t i, double lo, double hi, int64_t *k, int64_t *end)
{
    if (hi < lo)
        return i;
    if (!(lo >= -K_LIMIT && hi <= K_LIMIT))
        return WALK_RANGE;
    k[i + 1] = (int64_t)lo - 1;
    end[i + 1] = (int64_t)hi;
    return i + 1;
}

/* Trims the run of k_d just opened from the bounds [lo, hi] (see the
 * header); the depth after it: d, or d - 1 if the run is left empty. */
static int64_t trim(double *const *a, const double *const *D, int n, const double *s,
                    double lo, double hi, double slack, int64_t *k, int64_t *end)
{
    const int64_t d = (int64_t)1 << n;
    int64_t f = k[d] + 1, z = end[d];
    while (f <= z && (double)f < lo + slack && !inside(a, D, n, f, s))
        f++;
    while (z >= f && (double)z > hi - slack && !inside(a, D, n, z, s))
        z--;
    k[d] = f - 1;
    end[d] = z;
    return z < f ? d - 1 : d;
}

int64_t walk(double *s, int n, const double *diag, int64_t *K, double *X, int64_t size)
{
    const int64_t d = (int64_t)1 << n, last = d - 1;
    double *b[n + 1], *g[n + 1], *a[n + 1];
    const double *D[n + 1];
    b[n] = s;
    g[n] = s + d;
    for (int L = 0; L < n; L++) {
        b[L] = s + (2 + L) * d;
        g[L] = s + (n + 2 + L) * d;
        D[L] = diag + ((int64_t)1 << L) - 1;
    }
    for (int L = 0; L <= n; L++)
        a[L] = s + (2 * n + 2 + L) * d;
    int64_t *started = (int64_t *)(s + (3 * n + 3) * d), *depth = started + 1;
    int64_t *k = started + 2, *end = k + d + 1;
    double *a0 = a[0], *b0 = b[0], *g0 = g[0], *b1 = b[n ? 1 : 0], *g1 = g[n ? 1 : 0];
    const double d0 = n ? D[0][0] : 1.0;
    double m = 0.0; /* max |corner| */
    for (int64_t f = 0; f < d; f++) {
        if (!(s[f] <= s[d + f]))
            return 0; /* an empty box, however far */
        m = fmax(m, fmax(fabs(s[f]), fabs(s[d + f])));
    }
    if (!(m < CORNER_LIMIT))
        return WALK_RANGE;
    const double slack = SLACK * (1.0 + m);

    int64_t i = 0, rows = 0, count = 0;
    double lo, hi;
    if (*started) {
        i = *depth;
    } else {
        /* cascade the corner means down to scalar bounds for k_1 */
        *started = 1;
        for (int j = n - 1; j >= 0; j--) {
            const int64_t w = (int64_t)1 << j;
            for (int64_t t = 0; t < w; t++) {
                b[j][t] = (b[j + 1][t] + b[j + 1][t + w]) / 2.0;
                g[j][t] = (g[j + 1][t] + g[j + 1][t + w]) / 2.0;
            }
        }
        i = descend(0, ceil(b0[0] - slack), floor(g0[0] + slack), k, end);
        if (i == d)
            i = trim(a, D, n, s, b0[0], g0[0], slack, k, end);
    }

    while (i > 0) {
        if (i == d) { /* inside the run of k_d */
            if (!K) { /* the count leaf takes the whole run */
                uint64_t len = (uint64_t)end[i] - (uint64_t)k[i];
                if (__builtin_add_overflow(count, len, &count))
                    return WALK_OVERFLOW;
                i--;
                continue;
            }
            const int64_t kk = k[i] + 1;
            if (kk > end[i]) {
                i--;
                continue;
            }
            if (rows == size)
                break;
            k[i] = kk;
            a0[last] = (double)kk;
            merge(a, D, d, n);
            int64_t *krow = K + rows * d;
            double *xrow = X + rows * d;
            for (int64_t f = 0; f < d; f++) {
                krow[f] = k[f + 1];
                xrow[f] = a[n][f];
            }
            rows++;
            continue;
        }
        const int64_t kk = k[i] + 1;
        if (kk > end[i]) {
            i--;
            continue;
        }
        k[i] = kk;
        const double x = (double)kk;
        a0[i - 1] = x;
        if (i & 1) {
            /* the new scalar is its own partial image; it clamps its
             * level-1 sibling, which bounds k_{i+1} directly */
            const double lo1 = b1[i - 1] - x, lo2 = x - g1[i];
            const double hi1 = g1[i - 1] - x, hi2 = x - b1[i];
            lo = (lo1 > lo2 ? lo1 : lo2) / d0;
            hi = (hi1 < hi2 ? hi1 : hi2) / d0;
        } else {
            /* i = 2^r p: refresh the images, clamp the level-r sibling
             * block, then cascade its bounds down to level 0 */
            const int r = __builtin_ctzll((unsigned long long)i);
            merge(a, D, i, r);
            const int64_t w = (int64_t)1 << r, start = i - w;
            const double *ar = a[r], *pb = b[r + 1], *pg = g[r + 1], *dr = D[r];
            double *cb = b[r], *cg = g[r];
            for (int64_t t = 0; t < w; t++) {
                const double y = ar[start + t];
                const double lo1 = pb[start + t] - y, lo2 = y - pg[i + t];
                const double hi1 = pg[start + t] - y, hi2 = y - pb[i + t];
                cb[i + t] = (lo1 > lo2 ? lo1 : lo2) / dr[t];
                cg[i + t] = (hi1 < hi2 ? hi1 : hi2) / dr[t];
            }
            for (int j = r - 1; j >= 0; j--) {
                const int64_t v = (int64_t)1 << j;
                for (int64_t t = i; t < i + v; t++) {
                    b[j][t] = (b[j + 1][t] + b[j + 1][t + v]) / 2.0;
                    g[j][t] = (g[j + 1][t] + g[j + 1][t + v]) / 2.0;
                }
            }
            lo = b0[i];
            hi = g0[i];
        }
        const double from = ceil(lo - slack), to = floor(hi + slack);
        i = descend(i, from, to, k, end);
        if (i == d && (from < lo + slack || to > hi - slack))
            i = trim(a, D, n, s, lo, hi, slack, k, end);
    }
    if (i < 0)
        return i;
    *depth = i;
    return K ? rows : count;
}
