/* Table-driven, resumable traversal of the lattice points in a box.
 *
 * Built on first use by chebfrolov.enumeration (cc -O2 -ffp-contract=off)
 * and called through ctypes.  One library serves every level n and ladder:
 * both arrive as arguments.  It has two entry points: walk, the traversal,
 * and map_nodes, which maps filled images to cubature nodes in place (see
 * its comment at the end).  At every block the image is (A + D Y, A - D Y),
 * A and Y the images of its halves and D the diagonal one level down, so a
 * box [l, u] on the block splits into boxes on the halves.  The walk sets
 * one coordinate per depth, in the order the leaf asks for:
 *
 *   fill   (K != NULL)  mean-first, A before Y: k_1..k_d in lexicographic
 *                       order.  A lies between the half-means of the
 *                       corners; once it is set, Y is clamped to
 *                       [max(l1 - A, A - u2), min(u1 - A, A - l2)] / D.
 *                       Writes up to `size` rows of K (int64) and X
 *                       (double), the images from the last butterfly
 *                       chain, and returns how many it wrote.
 *   count  (K == NULL)  difference-first, Y before A: k_d..k_1.  Y lies in
 *                       [(l1 - u2) / 2D, (u1 - l2) / 2D]; once it is set, A
 *                       is clamped to [max(l1 - D Y, l2 + D Y),
 *                       min(u1 - D Y, u2 + D Y)].  Adds up the lengths of
 *                       the innermost runs and returns the total.
 *
 * Difference-first prunes far better (visits per point, a visit setting one
 * of the outer coordinates: 1.4 -> 0.6 at d = 8, N = 2^18; 23 -> 6.3 at
 * d = 16, N = 2^16; 218 -> 39 at d = 32, N = 2^6), but fills keep the
 * lexicographic order of their contract.
 *
 * A point is in the box iff its image x (the one apply_generator computes)
 * has lower <= x <= upper.  For each prefix the innermost coordinate (k_d in
 * a fill, k_1 in a count) ranges over an integer run: the integers within
 * slack = SLACK (1 + max|corner|) of its bounds, which carry rounding, and
 * so does every outer range.  An end of the run nearer than that to its
 * bound is dropped until its image is in the box.  The image is monotone in
 * the innermost coordinate (its column of the generator is all ones for
 * k_1, +- products of diagonals for k_d), and so is rounding, so the values
 * with images in the box are one interval: the trimmed run, which the leaf
 * takes.
 *
 * The slacks are measured margins, not proven bounds.  On about 800,000
 * face boxes [Gk, Gk], [Gk, Gk + 1] and [Gk - 1, Gk] over 8 seeds, d = 2..64,
 * |k| <= 1e13 and corners below 2^48, a point in the box lay at most this
 * far past a rounded bound on its own path, in units of u (1 + max|corner|),
 * u = 2^-53:
 *
 *   d                    2    4    8    16   32   64
 *   mean-first           1.0  2.9  3.0  3.3  2.5  2.7    SLACK 2^-50 = 8u
 *   difference-first     1.0  3.0  4.8  5.4  9.5  20.0   COUNT_SLACK 2^-47 = 64u
 *
 * A count slack of 2^-50 missed points at d = 32 and 64, 2^-49 at d = 64.
 * No larger d was measured, so lattice.MAX_LEVEL = 6 (d <= 64) rests on
 * this table.
 * The tests hold both against a reference with 4 times the count slack.
 * Far from the origin a slack widens ranges by whole integers and the
 * search tree opens (a d = 16 box of side 3 near k = 1e14 did not end), so
 * corners beyond CORNER_LIMIT = 2^48, where the count slack reaches 2, are
 * refused in both orders unless the box is empty (lower > upper in some
 * coordinate).
 *
 * Images come from the merges prod = D*y; a + prod; a - prod in both
 * orders.  A fill's bounds make the operations of the reference recursion,
 * in the same order: the clamps take `x > y ? x : y` (or `<`) and then
 * divide by the ladder diagonal, and means are (u + v) / 2.0; a count's
 * bounds are its own.  Contracting any of them to fused multiply-adds would
 * change the last bits, hence -ffp-contract=off (and never -ffast-math).
 * map_nodes relies on it too: its nodes must equal the separately rounded
 * operations of the node map, s * (x + v) then / u.
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
 * Level-L slot s covers the flat indices [s 2^L, (s+1) 2^L).  `depth` i
 * walks flat index i - 1 in a fill and d - i in a count (0 once the walk is
 * done, d while a fill is inside a run), k[i] is its current value and
 * end[i] the last one, so a fill stopped by a full buffer resumes where it
 * stopped.
 */
#include <math.h>
#include <stdint.h>

/* Coordinates beyond +-2^62 are refused, checked on the doubles before any
 * cast; 2^62 is exact as a double, and a run length (up to 2^63 + 1) still
 * fits in an unsigned 64-bit integer. */
#define K_LIMIT 4611686018427387904.0

/* the slacks per unit of 1 + max|corner|, of a fill and of a count (see above) */
#define SLACK 0x1p-50
#define COUNT_SLACK 0x1p-47
#define CORNER_LIMIT 0x1p48
enum { WALK_RANGE = -1, WALK_OVERFLOW = -2 };

int64_t walk_state_len(int n)
{
    return ((int64_t)3 * n + 5) * ((int64_t)1 << n) + 4;
}

/* Butterfly merges refreshing the partial images once the coordinate at
 * flat index p is set: level j = 1..r pairs the two 2^(j-1)-blocks of the
 * level-j block holding p and maps (A, Y) to (A + D Y, A - D Y), D the
 * level j-1 diagonal.  With r = n this is the chain that finishes an image. */
static void merge(double *const *a, const double *const *D, int64_t p, int r)
{
    for (int j = 1; j <= r; j++) {
        const int64_t w = (int64_t)1 << (j - 1), start = p & -(2 * w);
        const double *src = a[j - 1], *dj = D[j - 1];
        double *dst = a[j];
        for (int64_t t = start; t < start + w; t++) {
            const double prod = dj[t - start] * src[t + w];
            dst[t] = src[t] + prod;
            dst[t + w] = src[t] - prod;
        }
    }
}

/* Cascades the box of the level-r block at c down to level 0, to the box of
 * the coordinate walked next: mean-first along the chain of first halves,
 * whose boxes are the half-means of the corners, difference-first along the
 * chain of last halves, the Y boxes [(l1 - u2) / 2D, (u1 - l2) / 2D]. */
static void cascade(double *const *b, double *const *g, const double *const *D, int64_t c,
                    int r, int diff)
{
    for (int j = r - 1; j >= 0; j--) {
        const int64_t v = (int64_t)1 << j;
        const double *pb = b[j + 1] + c, *pg = g[j + 1] + c;
        if (diff) {
            c += v;
            for (int64_t t = 0; t < v; t++) {
                const double twice = 2.0 * D[j][t];
                b[j][c + t] = (pb[t] - pg[v + t]) / twice;
                g[j][c + t] = (pg[t] - pb[v + t]) / twice;
            }
        } else {
            for (int64_t t = 0; t < v; t++) {
                b[j][c + t] = (pb[t] + pb[t + v]) / 2.0;
                g[j][c + t] = (pg[t] + pg[t + v]) / 2.0;
            }
        }
    }
}

/* Is the image of the walked prefix and t at the innermost flat index p in
 * the box (corners s, s + d)?  Leaves the image in a[n]. */
static int inside(double *const *a, const double *const *D, int n, int64_t p, int64_t t,
                  const double *s)
{
    const int64_t d = (int64_t)1 << n;
    a[0][p] = (double)t;
    merge(a, D, p, n);
    for (int64_t f = 0; f < d; f++)
        if (!(a[n][f] >= s[f] && a[n][f] <= s[d + f]))
            return 0;
    return 1;
}

/* The depth after the range [lo, hi] of depth i + 1 is opened: i + 1, or i
 * if the range is empty, or WALK_RANGE if it reaches past the limit (or is
 * NaN).  k[i + 1] starts one below its range. */
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

/* Trims the innermost run (flat index p) just opened from the bounds
 * [lo, hi] (see the header); the depth after it: d, or d - 1 if the run is
 * left empty. */
static int64_t trim(double *const *a, const double *const *D, int n, int64_t p,
                    const double *s, double lo, double hi, double slack, int64_t *k,
                    int64_t *end)
{
    const int64_t d = (int64_t)1 << n;
    int64_t f = k[d] + 1, z = end[d];
    while (f <= z && (double)f < lo + slack && !inside(a, D, n, p, f, s))
        f++;
    while (z >= f && (double)z > hi - slack && !inside(a, D, n, p, z, s))
        z--;
    k[d] = f - 1;
    end[d] = z;
    return z < f ? d - 1 : d;
}

int64_t walk(double *s, int n, const double *diag, int64_t *K, double *X, int64_t size)
{
    /* depth i walks flat index i - 1 in a fill, d - i in a count */
    const int64_t d = (int64_t)1 << n, last = K ? d - 1 : 0, step = K ? 1 : -1;
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
    const double slack = (K ? SLACK : COUNT_SLACK) * (1.0 + m);

    int64_t i = 0, rows = 0, count = 0;
    double lo, hi;
    if (*started) {
        i = *depth;
    } else {
        /* cascade the box down to scalar bounds for the first coordinate */
        *started = 1;
        cascade(b, g, D, 0, n, !K);
        lo = b0[d - 1 - last];
        hi = g0[d - 1 - last];
        i = descend(0, ceil(lo - slack), floor(hi + slack), k, end);
        if (i == d)
            i = trim(a, D, n, last, s, lo, hi, slack, k, end);
    }

    while (i > 0) {
        if (i == d) { /* inside the innermost run */
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
            merge(a, D, last, n);
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
        const int64_t f = K ? i - 1 : d - i;
        a0[f] = x;
        if (i & 1) {
            /* the new scalar is its own partial image; it clamps its
             * level-1 sibling, which bounds the next coordinate directly */
            if (K) {
                const double lo1 = b1[i - 1] - x, lo2 = x - g1[i];
                const double hi1 = g1[i - 1] - x, hi2 = x - b1[i];
                lo = (lo1 > lo2 ? lo1 : lo2) / d0;
                hi = (hi1 < hi2 ? hi1 : hi2) / d0;
            } else {
                const double prod = d0 * x;
                const double lo1 = b1[f - 1] - prod, lo2 = b1[f] + prod;
                const double hi1 = g1[f - 1] - prod, hi2 = g1[f] + prod;
                lo = lo1 > lo2 ? lo1 : lo2;
                hi = hi1 < hi2 ? hi1 : hi2;
            }
        } else {
            /* i = 2^r p: refresh the images, clamp the level-r sibling
             * block of the one just finished, then cascade its box down */
            const int r = __builtin_ctzll((unsigned long long)i);
            merge(a, D, f, r);
            const int64_t w = (int64_t)1 << r;
            const double *ar = a[r], *pb = b[r + 1], *pg = g[r + 1], *dr = D[r];
            double *cb = b[r], *cg = g[r];
            if (K) { /* mean-first: A = [i - w, i) is set, Y = [i, i + w) */
                for (int64_t t = 0; t < w; t++) {
                    const double y = ar[i - w + t];
                    const double lo1 = pb[i - w + t] - y, lo2 = y - pg[i + t];
                    const double hi1 = pg[i - w + t] - y, hi2 = y - pb[i + t];
                    cb[i + t] = (lo1 > lo2 ? lo1 : lo2) / dr[t];
                    cg[i + t] = (hi1 < hi2 ? hi1 : hi2) / dr[t];
                }
                cascade(b, g, D, i, r, 0);
            } else { /* difference-first: Y = [f, f + w) is set, A = [f - w, f) */
                for (int64_t t = 0; t < w; t++) {
                    const double prod = dr[t] * ar[f + t];
                    const double lo1 = pb[f - w + t] - prod, lo2 = pb[f + t] + prod;
                    const double hi1 = pg[f - w + t] - prod, hi2 = pg[f + t] + prod;
                    cb[f - w + t] = lo1 > lo2 ? lo1 : lo2;
                    cg[f - w + t] = hi1 < hi2 ? hi1 : hi2;
                }
                cascade(b, g, D, f - w, r, 1);
            }
            lo = b0[f + step];
            hi = g0[f + step];
        }
        const double from = ceil(lo - slack), to = floor(hi + slack);
        i = descend(i, from, to, k, end);
        if (i == d && (from < lo + slack || to > hi - slack))
            i = trim(a, D, n, last, s, lo, hi, slack, k, end);
    }
    if (i < 0)
        return i;
    *depth = i;
    return K ? rows : count;
}

/* The cubature node map of chebfrolov.cubature, in place on len values of X,
 * rows of d (len a multiple of d): x -> s * x (v == NULL, the deterministic rule) or
 * x -> s * (x + v) / u (the randomized rule; v and u hold d values each), each
 * a separately rounded IEEE operation in that order.  Returns the index of
 * the first node with !(|node| <= bound), NaN included, or -1; the values
 * past it are left unmapped. */
int64_t map_nodes(double *X, int64_t len, int64_t d, double s, const double *v,
                  const double *u, double bound)
{
    for (int64_t i = 0; i < len; i += d) {
        double *row = X + i;
        for (int64_t f = 0; f < d; f++) {
            const double node = v ? s * (row[f] + v[f]) / u[f] : s * row[f];
            row[f] = node;
            if (!(fabs(node) <= bound))
                return i + f;
        }
    }
    return -1;
}
