/* Table-driven, resumable traversal of the lattice points in a box.
 *
 * The CPython extension module chebfrolov._walk, built on first use by
 * chebfrolov.enumeration (cc -O2 -ffp-contract=off -shared -fPIC, with the
 * interpreter's headers and no ISA flag: the cache is keyed by the machine
 * type, not the CPU) and cached on disk; on x86-64 with glibc, walk alone
 * also has an SSE4.1 clone, picked when the module loads (see walk).  One
 * module serves every level n and ladder: both arrive as arguments when a
 * walk is made, the ladder as the flat buffer of its diagonals (level L from
 * 2^L - 1), whose entries chebfrolov.lattice.DiagLadder has checked positive
 * and finite; the walk copies them into its state.  Its core is three C
 * functions: walk, the traversal; map_nodes, which maps filled images to
 * cubature nodes in place by one formula, s (x + v) / u, the deterministic
 * rule being the identity shift; and format_rows, which writes filled images
 * as CSV text, each value's digits made from exact integers (exact_g) at
 * precision <= 19 and by snprintf, in the C locale, only for zeros,
 * subnormals, precisions past 19 and values whose products do not fit in
 * 128 bits (see their comments below).  The CPython entry points at the
 * end, the module's only interface, wrap them: count and stream walk a whole
 * box, state and fill a resumable walk, and apply_generator runs walk's
 * merge on one vector.
 *
 * At every block the image is (A + D Y, A - D Y), A and Y the images of its
 * halves and D the diagonal one level down, so a box [l, u] on the block
 * splits into boxes on the halves.  The walk sets one coordinate per depth,
 * in one of two orders, its own argument:
 *
 *   mean-first        A before Y: k_1..k_d in lexicographic order.  A lies
 *                     between the half-means of the corners; once it is
 *                     set, Y is clamped to
 *                     [max(l1 - A, A - u2), min(u1 - A, A - l2)] / D.
 *   difference-first  Y before A: k_d..k_1.  Y lies in
 *                     [(l1 - u2) / 2D, (u1 - l2) / 2D]; once it is set, A
 *                     is clamped to
 *                     [max(l1 - D Y, l2 + D Y), min(u1 - D Y, u2 + D Y)].
 *
 * and hands each innermost run to one of two leaves, also its own argument:
 *
 *   rows   (K != NULL)  writes up to `size` rows of K (int64) and X (double),
 *                       k_1..k_d and the image from the last butterfly chain,
 *                       in the order walked, and returns how many it wrote.
 *   count  (K == NULL)  adds up the lengths of the runs and returns the total.
 *
 * Difference-first prunes far better (visits per point, a visit setting one
 * of the outer coordinates: 1.4 -> 0.6 at d = 8, N = 2^18; 23 -> 6.3 at
 * d = 16, N = 2^16; 218 -> 39 at d = 32, N = 2^6).  A count walks it; a fill
 * walks mean-first, the lexicographic order of its contract.  A stream at
 * d >= 8 walks its first chunk, SCRATCH / d rows, difference-first and sorts
 * the rows by k (O(m log m) over row indices) before it hands them out; a
 * box that holds more points walks again, mean-first, as a fill does.  At
 * d <= 4 both orders visit about as many nodes, and the sort would only add
 * to the stream's cost.  A count of a box symmetric about 0
 * (lower == -upper) walks half that tree (visits per point 0.31, 3.2 and
 * 19.5 above): G(-k) is -Gk to the bit, so the box holds k iff it holds -k.
 * It walks the k whose first nonzero coordinate in walk order is positive
 * (halve), and a run counts twice, for its mirror too, unless its prefix is
 * all zero.
 *
 * A point is in the box iff its image x (the one apply_generator computes)
 * has lower <= x <= upper.  For each prefix the innermost coordinate (k_d
 * mean-first, k_1 difference-first) ranges over an integer run: the
 * integers within slack = SLACK (1 + max|corner|) of its bounds (COUNT_SLACK
 * difference-first), which carry rounding, and so does every outer range.
 * An end of the run nearer than that to its bound is dropped until its image
 * is in the box.  The image is monotone in the innermost coordinate (its
 * column of the generator is all ones for k_1, +- products of diagonals for
 * k_d), and so is rounding, so the values with images in the box are one
 * interval: the trimmed run, which the leaf takes.
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
 * Each order takes its own slack, whatever its leaf: a stream's first chunk
 * takes the count's.  A difference-first slack of 2^-50 missed points at
 * d = 32 and 64, 2^-49 at d = 64.
 * No larger d was measured, so lattice.MAX_LEVEL = 6 (d <= 64) rests on
 * this table, and every entry point refuses a higher level (LEVEL_LIMIT).
 * The tests hold both against a reference with 4 times the count slack.
 * Far from the origin a slack widens ranges by whole integers and the
 * search tree opens (a d = 16 box of side 3 near k = 1e14 did not end), so
 * corners beyond CORNER_LIMIT = 2^48, where the count slack reaches 2, are
 * refused in both orders unless the box is empty (lower > upper in some
 * coordinate).
 *
 * Images come from the merges prod = D*y; a + prod; a - prod in both
 * orders, so a row's image has the same bits in either.  The mean-first
 * bounds make the operations of the reference recursion, in the same order:
 * the clamps take `x > y ? x : y` (or `<`) and then divide by the ladder
 * diagonal, and means are (u + v) / 2.0; the difference-first bounds are
 * their own.  Contracting any of them to fused multiply-adds would
 * change the last bits, hence -ffp-contract=off (and never -ffast-math).
 * map_nodes relies on it too: its nodes must equal the separately rounded
 * operations of the node map, s * (x + v) then / u.  The SSE4.1 clone of
 * walk is built under the same flags, so it makes the same IEEE operations;
 * it rounds the bounds of each range, ceil(lo - slack) and floor(hi + slack),
 * with one roundsd each, which in floor and ceil mode is exact and gives
 * libm's results, -0.0 and NaN included, where the default code takes a
 * chain of conversions, compares and masks.  So both clones give the same
 * bits.
 *
 * There is no static state.  Everything lives in a state of walk_state_len(n)
 * eight-byte slots, set by walk_args() from the box and the ladder when the
 * walk is made (the call's own for count and stream, the opaque capsule of
 * `state` for fill, so every fill of a walk reads the ladder and the batch
 * size it began with):
 *
 *   [0, d)             lower corner  = b, level n
 *   [d, 2d)            upper corner  = g, level n
 *   [2d, (n+2)d)       b, levels 0..n-1   lower bounds of partial images
 *   [(n+2)d, (2n+2)d)  g, levels 0..n-1   upper bounds
 *   [(2n+2)d, (3n+3)d) a, levels 0..n     partial images
 *   (3n+3)d            1 + max|corner|, the unit of the slacks
 *   then 2^n - 1:      the diagonals, level L from 2^L - 1 (the ladder's)
 *   then int64:        started, depth, k[0..d], end[0..d]
 *
 * Level-L slot s covers the flat indices [s 2^L, (s+1) 2^L).  `depth` i
 * walks flat index i - 1 mean-first and d - i difference-first (0 once the
 * walk is done, d while rows fill inside a run), k[i] is its current value
 * and end[i] the last one, so a walk stopped by a full buffer resumes where
 * it stopped, in the same order; with `started` reset to 0 it begins again.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h> /* first: it sets _POSIX_C_SOURCE (newlocale, uselocale) */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>

/* Coordinates beyond +-2^62 are refused, checked on the doubles before any
 * cast; 2^62 is exact as a double, and a run length (up to 2^63 + 1) still
 * fits in an unsigned 64-bit integer. */
#define K_LIMIT 4611686018427387904.0

/* the slacks per unit of 1 + max|corner|, of a fill and of a count (see above) */
#define SLACK 0x1p-50
#define COUNT_SLACK 0x1p-47
#define CORNER_LIMIT 0x1p48
enum { WALK_RANGE = -1, WALK_OVERFLOW = -2 };

static int64_t walk_state_len(int n)
{
    return ((int64_t)3 * n + 6) * ((int64_t)1 << n) + 4;
}

/* The unit of the slacks in the state s of a level-n walk: the diagonals
 * follow it, and the int64 slots follow them (see the layout above). */
static double *walk_unit(double *s, int n)
{
    return s + ((int64_t)3 * n + 3) * ((int64_t)1 << n);
}

/* The int64 slots of the state s of a level-n walk: started, depth, k, end. */
static int64_t *walk_slots(double *s, int n)
{
    return (int64_t *)(walk_unit(s, n) + ((int64_t)1 << n));
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

/* The half-walk of a count (zd >= 0, see the header) once depth i is set to
 * kk: keeps zd the deepest depth with k[1..zd] all 0, and starts the range
 * that depth i + 1 < d opens just past them at 0, through its bound *lo. */
static void halve(int64_t i, int64_t kk, int64_t d, int64_t *zd, double *lo)
{
    if (*zd >= 0 && i <= *zd + 1)
        *zd = i - (kk != 0);
    if (i == *zd && i + 1 < d && *lo < 0.0)
        *lo = 0.0;
}

/* The traversal in the order diff (1 difference-first, 0 mean-first) into
 * the leaf K (see the header); walk() below runs it. */
static inline __attribute__((always_inline)) int64_t walk_in(double *s, int n, int diff,
                                                             int64_t *K, double *X, int64_t size)
{
    /* depth i walks flat index i - 1 mean-first, d - i difference-first:
     * flat index f is at depth base + step f */
    const int64_t d = (int64_t)1 << n, last = diff ? 0 : d - 1, step = diff ? -1 : 1;
    const int64_t base = diff ? d : 1;
    const double *unit = walk_unit(s, n), *diag = unit + 1;
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
    int64_t *started = walk_slots(s, n), *depth = started + 1;
    int64_t *k = started + 2, *end = k + d + 1;
    /* a0 = a[0] and d0 = D[0][0] are read from their sources: gcc -O2 cannot
     * see that the loops above set a[0] and D[0] */
    double *a0 = s + (2 * n + 2) * d, *b0 = b[0], *g0 = g[0];
    double *b1 = b[n ? 1 : 0], *g1 = g[n ? 1 : 0];
    const double d0 = n ? diag[0] : 1.0;
    const double slack = (diff ? COUNT_SLACK : SLACK) * *unit;

    int64_t i = 0, rows = 0, count = 0, zd = -1;
    double lo, hi;
    if (*started) {
        i = *depth;
    } else {
        /* cascade the box down to scalar bounds for the first coordinate */
        *started = 1;
        cascade(b, g, D, 0, n, diff);
        lo = b0[d - 1 - last];
        hi = g0[d - 1 - last];
        if (!K) { /* a count of a box symmetric about 0 takes the half-walk */
            zd = 0;
            for (int64_t f = 0; f < d && zd == 0; f++)
                zd = s[f] == -s[d + f] ? 0 : -1;
            halve(0, 0, d, &zd, &lo);
        }
        i = descend(0, ceil(lo - slack), floor(hi + slack), k, end);
        if (i == d)
            i = trim(a, D, n, last, s, lo, hi, slack, k, end);
    }

    while (i > 0) {
        if (i == d) { /* inside the innermost run */
            if (!K) { /* the count leaf takes the whole run, twice past a nonzero prefix */
                uint64_t len = (uint64_t)end[i] - (uint64_t)k[i];
                if (__builtin_add_overflow(count, len, &count)
                    || (zd >= 0 && zd < d - 1 && __builtin_add_overflow(count, len, &count)))
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
                krow[f] = k[base + step * f];
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
        const int64_t f = diff ? d - i : i - 1;
        a0[f] = x;
        if (i & 1) {
            /* the new scalar is its own partial image; it clamps its
             * level-1 sibling, which bounds the next coordinate directly */
            if (!diff) {
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
                halve(i, kk, d, &zd, &lo);
            }
        } else {
            /* i = 2^r p: refresh the images, clamp the level-r sibling
             * block of the one just finished, then cascade its box down */
            const int r = __builtin_ctzll((unsigned long long)i);
            merge(a, D, f, r);
            const int64_t w = (int64_t)1 << r;
            const double *ar = a[r], *pb = b[r + 1], *pg = g[r + 1], *dr = D[r];
            double *cb = b[r], *cg = g[r];
            if (!diff) { /* mean-first: A = [i - w, i) is set, Y = [i, i + w) */
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
                halve(i, kk, d, &zd, b0 + f - 1);
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

/* walk_in with its order a constant in each of two copies: one function
 * taking the order at run time streamed up to 2 % slower mean-first, and up
 * to 10 % slower a box just past one chunk.  On x86-64 with glibc, walk is
 * cloned for SSE4.1, whose roundsd rounds each node's two bounds in one
 * instruction (counts 13-19 % faster); an ifunc resolver picks the clone by
 * CPUID when the module loads, so one build runs on any x86-64 CPU, and
 * both clones give the same bits (see the header).  Aligned to 64 bytes,
 * the clones read alike wherever they land, but fills at d = 8 and 16 read
 * 3-4 % slower than at the compiler's own 16-byte placement. */
#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target_clones("sse4.1", "default")))
#endif
static int64_t walk(double *s, int n, int diff, int64_t *K, double *X, int64_t size)
{
    return diff ? walk_in(s, n, 1, K, X, size) : walk_in(s, n, 0, K, X, size);
}

/* Does row p of K (rows of d) come before row q in lexicographic order? */
static int row_before(const int64_t *K, int64_t d, int64_t p, int64_t q)
{
    const int64_t *kp = K + p * d, *kq = K + q * d;
    int64_t f = 0;
    while (f + 1 < d && kp[f] == kq[f])
        f++;
    return kp[f] < kq[f];
}

/* The first chunk of a stream: walks the new walk of s difference-first into
 * up to `size` rows of K and X.  If that ends the walk, it writes the indices
 * of the rows in the lexicographic order of k to order, by a merge sort
 * through tmp (`size` slots each), and returns how many; else (the rows are
 * full, or a range reaches past the limits) it resets the walk to begin
 * again and returns -1. */
static int64_t first_chunk(double *s, int n, int64_t *K, double *X, int64_t size,
                           int64_t *order, int64_t *tmp)
{
    int64_t *started = walk_slots(s, n);
    const int64_t d = (int64_t)1 << n, rows = walk(s, n, 1, K, X, size);
    if (rows < 0 || started[1] != 0) {
        started[0] = 0;
        return -1;
    }
    int64_t *from = order, *to = tmp;
    for (int64_t r = 0; r < rows; r++)
        order[r] = r;
    for (int64_t w = 1; w < rows; w *= 2) {
        for (int64_t lo = 0; lo < rows; lo += 2 * w) {
            const int64_t mid = lo + w < rows ? lo + w : rows;
            const int64_t hi = mid + w < rows ? mid + w : rows;
            for (int64_t p = lo, q = mid, t = lo; t < hi; t++)
                to[t] = q < hi && (p == mid || row_before(K, d, from[q], from[p])) ? from[q++]
                                                                                   : from[p++];
        }
        int64_t *swap = from;
        from = to;
        to = swap;
    }
    if (from != order)
        memcpy(order, from, (size_t)rows * 8);
    return rows;
}

/* The cubature node map of chebfrolov.cubature, in place on len values of X,
 * rows of d (len a multiple of d): x -> s * (x + v) / u, v and u holding d
 * values each, each a separately rounded IEEE operation in that order.  The
 * deterministic rule is the identity shift u = 1, v = 0: x + 0.0 and x / 1.0
 * are x for every image, which is never -0.0.  Returns the index of the
 * first node with !(|node| <= bound), NaN included, or -1; the values past
 * it are left unmapped. */
static int64_t map_nodes(double *X, int64_t len, int64_t d, double s, const double *v,
                  const double *u, double bound)
{
    for (int64_t i = 0; i < len; i += d) {
        double *row = X + i;
        for (int64_t f = 0; f < d; f++) {
            const double node = s * (row[f] + v[f]) / u[f];
            row[f] = node;
            if (!(fabs(node) <= bound))
                return i + f;
        }
    }
    return -1;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* The text %.*g gives x at precision p <= 19, made from exact integers and
 * written to out: at most 25 bytes, as |x| < 2^127 has a decimal exponent
 * of two digits.  Returns its length, or 0 where snprintf must write x:
 * p > 19, zeros, subnormals, infinities, NaN, and |x| outside [2^-75,
 * 2^127), where the products below may not fit in 128 bits.  x = m 2^q,
 * m < 2^53; with e an estimate of its decimal exponent and s = p - 1 - e,
 * the p digits are n = m 2^q 10^s rounded half to even: a shift by -q when
 * s >= 0, else one division.  The estimate floor((q + 52) log10 2) is
 * exact for every normal q and at most x's own exponent, so n >= 10^(p-1);
 * a carry to 10^p steps e once.  The digits are laid out by %g's rule:
 * fixed notation when -4 <= e < p, else an exponent of at least two
 * digits, and no trailing zeros.  ten holds 10^0 .. 10^38 (Loitsch, PLDI
 * 2010, and Adams, OOPSLA 2019, cover every exponent with larger tables). */
static int exact_g(double x, int p, const u128 *ten, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int be = (int)(bits >> 52 & 0x7ff), q = be - 1075, r = q < 0 ? -q : 0;
    if (be == 0 || p > 19 || q > 74 || q < -127) /* be 0x7ff has q 972 */
        return 0;
    const u128 m = (u128)((bits & 0xfffffffffffffULL) | 1ULL << 52) << (q + r);
    u128 n;
    int e = (q + 52) * 78913 >> 18;
    for (;; e++) {
        const int s = p - 1 - e;
        u128 num = m;
        if (s > 38 || (s >= 0 && __builtin_mul_overflow(m, ten[s], &num)))
            return 0;
        /* s < 0 only where x >= 9.5 (r <= 49): -s <= 38, and <= 15 where r > 0 */
        const u128 den = (s < 0 ? ten[-s] : 1) << r;
        n = s < 0 ? num / den : num >> r;
        const u128 rem = num - n * den;
        n += rem > den - rem || (rem == den - rem && (n & 1));
        if (n < ten[p])
            break;
    }
    /* the digits after `lead` zeros (0.000ddd), the point after `point` */
    const int sci = e < -4 || e >= p, lead = sci || e >= 0 ? 0 : -e;
    const int point = sci ? 1 : e + 1 + lead;
    char *o = out + (bits >> 63), dig[23];
    *out = '-';
    memset(dig, '0', sizeof dig);
    uint64_t v = (uint64_t)n;
    for (int k = lead + p - 1; k >= lead; k--, v /= 10)
        dig[k] = (char)('0' + v % 10);
    int len = lead + p;
    while (dig[len - 1] == '0')
        len--;
    memcpy(o, dig, (size_t)point);
    o += point;
    if (len > point) {
        *o++ = '.';
        memcpy(o, dig + point, (size_t)(len - point));
        o += len - point;
    }
    if (sci) /* out has room for the NUL, which the separator replaces */
        o += snprintf(o, 5, "e%+03d", e);
    return (int)(o - out);
}
#else
#define exact_g(x, p, ten, out) 0 /* no 128-bit integers: snprintf writes every value */
#endif

/* The CSV text of len values of X, rows of d (len a multiple of d): each
 * value as printf's %.*g with `precision` significant digits, ',' between
 * the values of a row and '\n' after it, written to out, which holds cap
 * bytes.  Returns the number of bytes written, or -1 if they do not fit (or
 * the C locale cannot be had); no NUL ends the text.  Normal values at
 * precision <= 19 are written from exact integers (exact_g, while out has
 * room for its 25 bytes and a separator); snprintf writes the rest: zeros,
 * subnormals, precisions past 19, values whose products do not fit in 128
 * bits, infinities and NaN.  printf takes its decimal point from
 * LC_NUMERIC, so for those the call pins the C locale for its own thread
 * and restores the thread's locale before it returns: the bytes are those
 * of Python's format(x, ".{precision}g"), whatever locale is set.
 * A value takes at most precision + 7 bytes ("-0.000" and the digits, or
 * "-d." and "e-324"), its separator one more. */
static int64_t format_rows(const double *X, int64_t len, int64_t d, int precision, char *out,
                    int64_t cap)
{
    const locale_t c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c == (locale_t)0)
        return -1;
    const locale_t caller = uselocale(c);
#ifdef __SIZEOF_INT128__
    u128 ten[39] = {1};
    for (int k = 1; k < 39; k++)
        ten[k] = ten[k - 1] * 10;
#endif
    int64_t pos = 0;
    for (int64_t i = 0; i < len && pos >= 0; i += d) {
        for (int64_t f = 0; f < d; f++) {
            int w = cap - pos > 25 ? exact_g(X[i + f], precision, ten, out + pos) : 0;
            if (w == 0)
                w = snprintf(out + pos, (size_t)(cap - pos), "%.*g", precision, X[i + f]);
            if (w < 0 || w >= cap - pos) { /* the NUL must fit: the separator replaces it */
                pos = -1;
                break;
            }
            pos += w;
            out[pos++] = f + 1 < d ? ',' : '\n';
        }
    }
    uselocale(caller);
    freelocale(c);
    return pos;
}

/* ---- Python entry points ---------------------------------------------------
 *
 * METH_FASTCALL functions over the buffer protocol: X, v, u and the
 * diagonals are buffers of eight-byte values (bytearray or array.array, or
 * memoryviews of them), checked for length and alignment before anything
  * is written.  Integers are read as operator.index reads them, clipped to
 * Py_ssize_t: a level past it is out of range, a size or a precision is
 * clipped again.  Walker states and fill rows are the module's own: a walk
 * copies its diagonals into its state when it is made, so walk, which runs
 * with the GIL released, touches no Python object and no caller's buffer. */

/* Values in each buffer of the scratch pair behind `stream`. */
#define SCRATCH 1024
/* The lowest level whose streams walk their first chunk difference-first
 * (d = 8), and so the most rows that chunk holds. */
#define SORT_LEVEL 3
#define SORT_ROWS (SCRATCH >> SORT_LEVEL)
#define FILL_ROWS 1024 /* rows a fill's pair starts with: enumeration._FILL_ROWS */
/* Levels the walker entry points take: lattice.MAX_LEVEL, d = 2^n <= 64. */
#define LEVEL_LIMIT 6

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* An integer argument (clipped to Py_ssize_t) in [lo, hi], or -1 with an
 * exception set. */
static Py_ssize_t int_arg(PyObject *obj, const char *what, Py_ssize_t lo, Py_ssize_t hi)
{
    const Py_ssize_t v = PyNumber_AsSsize_t(obj, NULL);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "%s %zd is outside [%zd, %zd]", what, v, lo, hi);
        return -1;
    }
    return v;
}

/* A view of obj holding at least `need` eight-byte values (writable if
 * asked), or -1 with an exception set and no view held. */
static int values(PyObject *obj, Py_buffer *view, int writable, Py_ssize_t need, const char *what)
{
    if (PyObject_GetBuffer(obj, view, writable ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0)
        return -1;
    if (view->len > 0 && (uintptr_t)view->buf % 8 != 0) {
        PyErr_Format(PyExc_ValueError, "%s is not aligned to eight bytes", what);
    } else if (view->len / 8 < need) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd values, fewer than %zd", what,
                     view->len / 8, need);
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* A walk result: the int, or ValueError for the negative codes. */
static PyObject *walk_result(int64_t result)
{
    if (result >= 0)
        return PyLong_FromLongLong(result);
    PyErr_SetString(PyExc_ValueError,
                    result == WALK_RANGE
                        ? "the box is too large or too far from the origin: it has a corner"
                          " beyond +-2**48 or needs lattice coordinates beyond +-2**62"
                        : "the point count exceeds 2**63 - 1");
    return NULL;
}

/* 0 if lower and upper are two tuples of d = 2^n values, else -1 with an
 * exception set. */
static int corners(PyObject *lower, PyObject *upper, Py_ssize_t n)
{
    const Py_ssize_t d = (Py_ssize_t)1 << n;
    if (!PyTuple_Check(lower) || !PyTuple_Check(upper)) {
        PyErr_Format(PyExc_ValueError, "the corners must be two tuples of %zd floats", d);
        return -1;
    }
    const Py_ssize_t m = PyTuple_GET_SIZE(lower) != d ? PyTuple_GET_SIZE(lower)
                                                      : PyTuple_GET_SIZE(upper);
    if (m == d)
        return 0;
    PyErr_Format(PyExc_ValueError, "box dimension %zd != lattice dimension %zd", m, d);
    return -1;
}

/* A view of the diagonals obj (see values) holding a ladder of depth >= n,
 * the 2^n - 1 values of levels 0..n-1, or -1 with an exception set and no
 * view held. */
static int ladder(PyObject *obj, Py_buffer *view, Py_ssize_t n)
{
    if (values(obj, view, 0, 0, "the diagonals") < 0)
        return -1;
    const Py_ssize_t len = view->len / 8;
    if (len >= ((Py_ssize_t)1 << n) - 1)
        return 0;
    int depth = 0; /* the levels it holds whole: 2^depth - 1 values */
    while (((Py_ssize_t)2 << depth) - 1 <= len)
        depth++;
    PyErr_Format(PyExc_ValueError, "ladder depth %d < level %zd", depth, n);
    PyBuffer_Release(view);
    return -1;
}

/* Begins the walk of the box lower, upper (see corners) in the zeroed state
 * s: a box empty in some coordinate (lower > upper, or NaN) is a walk
 * already done, however far; another with a corner beyond CORNER_LIMIT is
 * refused; else s keeps 1 + max|corner|, the slacks' unit. */
static int begin(double *s, PyObject *lower, PyObject *upper, int n)
{
    const Py_ssize_t d = (Py_ssize_t)1 << n;
    for (Py_ssize_t f = 0; f < 2 * d; f++) {
        s[f] = PyFloat_AsDouble(PyTuple_GET_ITEM(f < d ? lower : upper, f % d));
        if (s[f] == -1.0 && PyErr_Occurred())
            return -1;
    }
    double m = 0.0, *unit = walk_unit(s, n);
    for (Py_ssize_t f = 0; f < d; f++) {
        if (!(s[f] <= s[d + f])) {
            *walk_slots(s, n) = 1; /* started, at depth 0: done */
            return 0;
        }
        m = fmax(m, fmax(fabs(s[f]), fabs(s[d + f])));
    }
    if (!(m < CORNER_LIMIT))
        return walk_result(WALK_RANGE) ? 0 : -1;
    *unit = 1.0 + m;
    return 0;
}

/* A new walk of the box args[0], args[1] (see begin) at level *n = args[3],
 * with the 2^n - 1 diagonals of the ladder args[2] copied into its state, in
 * a block of walk_state_len(n) slots and `extra` unset ones after them, to
 * PyMem_Free; NULL with an exception set.  It checks the level, then the
 * box's dimension, then the ladder's depth.  No view is held once it
 * returns. */
static double *walk_args(PyObject *const *args, Py_ssize_t *n, int64_t extra)
{
    Py_buffer diag;
    if ((*n = int_arg(args[3], "level", 0, LEVEL_LIMIT)) < 0 || corners(args[0], args[1], *n) < 0
        || ladder(args[2], &diag, *n) < 0)
        return NULL;
    const int64_t len = walk_state_len((int)*n);
    double *s = PyMem_Malloc((size_t)(len + extra) * 8);
    if (s == NULL) {
        PyErr_NoMemory();
    } else if (begin(memset(s, 0, (size_t)len * 8), args[0], args[1], (int)*n) < 0) {
        PyMem_Free(s);
        s = NULL;
    } else {
        memcpy(walk_unit(s, (int)*n) + 1, diag.buf, (((size_t)1 << *n) - 1) * 8);
    }
    PyBuffer_Release(&diag);
    return s;
}

#define STATE "chebfrolov._walk.state"

static void free_state(PyObject *state)
{
    PyMem_Free(PyCapsule_GetPointer(state, STATE));
}

/* state(lower, upper, diag, n, size): a new walk of the box at level n under
 * the diagonals diag, an opaque capsule holding its state, with n as its
 * context; one fill at a time resumes it, for up to size rows.  The size,
 * checked after the box, is kept in the slot past the state, clipped to the
 * rows a buffer can hold, PY_SSIZE_T_MAX / 8d. */
static PyObject *py_state(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n;
    double *s;
    if (check_nargs("state", nargs, 5) < 0 || (s = walk_args(args, &n, 1)) == NULL)
        return NULL;
    const Py_ssize_t size = int_arg(args[4], "batch size", 1, PY_SSIZE_T_MAX);
    const Py_ssize_t most = PY_SSIZE_T_MAX / ((Py_ssize_t)8 << n);
    *(int64_t *)(s + walk_state_len((int)n)) = size < most ? size : most;
    PyObject *state = size < 0 ? NULL : PyCapsule_New(s, STATE, free_state);
    if (state == NULL)
        PyMem_Free(s);
    else
        PyCapsule_SetContext(state, (void *)(intptr_t)n);
    return state;
}

/* count(lower, upper, diag, n): the points in the box. */
static PyObject *py_count(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n;
    double *s;
    if (check_nargs("count", nargs, 4) < 0 || (s = walk_args(args, &n, 0)) == NULL)
        return NULL;
    int64_t result;
    Py_BEGIN_ALLOW_THREADS
    result = walk(s, (int)n, 1, NULL, NULL, 0);
    Py_END_ALLOW_THREADS
    PyMem_Free(s);
    return walk_result(result);
}

/* fill(state): resumes the walk of a `state` for up to its size rows and
 * returns them as a pair of bytearrays, K (int64) and X (float64), d values
 * a row, empty once the walk is done.  The pair starts with FILL_ROWS rows,
 * at most the size, doubles while the walk fills it and is trimmed to the
 * rows written, so a huge size costs at most FILL_ROWS or twice the rows
 * the fill wrote. */
static PyObject *py_fill(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("fill", nargs, 1) < 0)
        return NULL;
    if (!PyCapsule_IsValid(args[0], STATE))
        return PyErr_Format(PyExc_TypeError, "fill() needs a walker state made by state()");
    double *s = PyCapsule_GetPointer(args[0], STATE);
    const int n = (int)(intptr_t)PyCapsule_GetContext(args[0]);
    const Py_ssize_t d = (Py_ssize_t)1 << n, row = 8 * d;
    const Py_ssize_t size = *(int64_t *)(s + walk_state_len(n));
    Py_ssize_t cap = size < FILL_ROWS ? size : FILL_ROWS, rows = 0;
    PyObject *K = PyByteArray_FromStringAndSize(NULL, cap * row), *pair = NULL;
    PyObject *X = K ? PyByteArray_FromStringAndSize(NULL, cap * row) : NULL;
    int64_t result = 0;
    while (X != NULL) {
        int64_t *k = (int64_t *)PyByteArray_AS_STRING(K) + rows * d;
        double *x = (double *)PyByteArray_AS_STRING(X) + rows * d;
        Py_BEGIN_ALLOW_THREADS
        result = walk(s, n, 0, k, x, cap - rows);
        Py_END_ALLOW_THREADS
        if (result < 0 || (rows += result) < cap || cap == size)
            break;
        cap = cap < size - cap ? 2 * cap : size; /* full: double the pair */
        if (PyByteArray_Resize(K, cap * row) < 0 || PyByteArray_Resize(X, cap * row) < 0)
            break;
    }
    if (result < 0)
        walk_result(result);
    else if (!PyErr_Occurred() && PyByteArray_Resize(K, rows * row) == 0
             && PyByteArray_Resize(X, rows * row) == 0)
        pair = PyTuple_Pack(2, K, X);
    Py_XDECREF(K);
    Py_XDECREF(X);
    return pair;
}

/* The instance of the tuple subclass `type` holding (k, x), d values each. */
static PyObject *lattice_point(PyTypeObject *type, const int64_t *k, const double *x, int64_t d)
{
    PyObject *kt = PyTuple_New(d), *xt = PyTuple_New(d), *point;
    if (kt == NULL || xt == NULL)
        goto fail;
    for (int64_t f = 0; f < d; f++) {
        PyObject *kf = PyLong_FromLongLong(k[f]), *xf = PyFloat_FromDouble(x[f]);
        PyTuple_SET_ITEM(kt, f, kf); /* a NULL leaves the slot empty, as it was */
        PyTuple_SET_ITEM(xt, f, xf);
        if (kf == NULL || xf == NULL)
            goto fail;
    }
    /* as tuple.__new__(type, (k, x)) builds it */
    if ((point = type->tp_alloc(type, 2)) == NULL)
        goto fail;
    PyTuple_SET_ITEM(point, 0, kt);
    PyTuple_SET_ITEM(point, 1, xt);
    return point;
fail:
    Py_XDECREF(kt);
    Py_XDECREF(xt);
    return NULL;
}

/* stream(lower, upper, diag, n, type, consumer): calls consumer with each
 * point of the box, a `type` (k, x) instance of tuples of ints and floats,
 * in the lexicographic order of k, and returns their number.  SCRATCH / d
 * rows a walk pass through a pair behind the state, off the C stack, which
 * consumers that stream again would overflow; two arrays of SORT_ROWS row
 * indices follow it.  At level SORT_LEVEL and up, the first chunk is
 * first_chunk's; a box it does not hold is walked mean-first from the start.
 * Signals are handled before each point and after each walk, so Ctrl-C
 * stops a stream; a Python gc callback that a point's allocations start can
 * still take a signal that arrives during that collection. */
static PyObject *py_stream(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("stream", nargs, 6) < 0)
        return NULL;
    if (!PyType_Check(args[4]) || !PyType_IsSubtype((PyTypeObject *)args[4], &PyTuple_Type))
        return PyErr_Format(PyExc_TypeError, "stream() needs a tuple subclass for its points");
    Py_ssize_t n;
    double *s = walk_args(args, &n, 2 * SCRATCH + 2 * SORT_ROWS);
    if (s == NULL)
        return NULL;
    const int64_t d = (int64_t)1 << n, chunk = SCRATCH / d;
    double *X = s + walk_state_len((int)n);
    int64_t *K = (int64_t *)(X + SCRATCH), *index = K + SCRATCH, rows = chunk, total = 0;
    int first = n >= SORT_LEVEL;
    while (rows == chunk && !PyErr_Occurred()) {
        const int64_t *order = NULL; /* the rows' order, if not the walk's */
        Py_BEGIN_ALLOW_THREADS
        if (first && (rows = first_chunk(s, (int)n, K, X, chunk, index, index + SORT_ROWS)) >= 0)
            order = index;
        else
            rows = walk(s, (int)n, 0, K, X, chunk);
        Py_END_ALLOW_THREADS
        first = 0;
        for (int64_t r = 0; r < rows && !PyErr_Occurred() && PyErr_CheckSignals() == 0; r++) {
            const int64_t row = (order ? order[r] : r) * d;
            PyObject *point = lattice_point((PyTypeObject *)args[4], K + row, X + row, d);
            Py_XDECREF(point ? PyObject_CallOneArg(args[5], point) : NULL);
            Py_XDECREF(point);
        }
        total += rows;
        PyErr_CheckSignals();
    }
    PyMem_Free(s);
    if (PyErr_Occurred())
        return NULL;
    return rows < 0 ? walk_result(rows) : PyLong_FromLongLong(total);
}

/* map_nodes(X, d, s, v, u, bound): map_nodes on the float64 buffer X, rows
 * of d; v and u are float64 buffers of d values. */
static PyObject *py_map_nodes(PyObject *Py_UNUSED(module), PyObject *const *args,
                              Py_ssize_t nargs)
{
    Py_ssize_t d;
    if (check_nargs("map_nodes", nargs, 6) < 0
        || (d = int_arg(args[1], "dimension", 1, PY_SSIZE_T_MAX)) < 0)
        return NULL;
    const double s = PyFloat_AsDouble(args[2]);
    if (s == -1.0 && PyErr_Occurred())
        return NULL;
    const double bound = PyFloat_AsDouble(args[5]);
    if (bound == -1.0 && PyErr_Occurred())
        return NULL;
    Py_buffer X, v, u;
    if (values(args[0], &X, 1, 0, "X") < 0)
        return NULL;
    int64_t result = -1;
    if ((X.len / 8) % d != 0) {
        PyErr_Format(PyExc_ValueError, "X holds %zd values, not rows of %zd", X.len / 8, d);
    } else if (values(args[3], &v, 0, d, "v") == 0) {
        if (values(args[4], &u, 0, d, "u") == 0) {
            result = map_nodes(X.buf, X.len / 8, d, s, v.buf, u.buf, bound);
            PyBuffer_Release(&u);
        }
        PyBuffer_Release(&v);
    }
    PyBuffer_Release(&X);
    return PyErr_Occurred() ? NULL : PyLong_FromLongLong(result);
}

/* format_rows(X, d, precision): format_rows of the float64 buffer X, rows
 * of d, as a bytearray of the text, sized for precision + 8 bytes a value
 * (see format_rows) and trimmed to the bytes written.  Any precision >= 1
 * is taken; one past 767 writes the text of 767. */
static PyObject *py_format_rows(PyObject *Py_UNUSED(module), PyObject *const *args,
                                Py_ssize_t nargs)
{
    Py_ssize_t d, precision;
    if (check_nargs("format_rows", nargs, 3) < 0
        || (d = int_arg(args[1], "dimension", 1, PY_SSIZE_T_MAX)) < 0
        || (precision = int_arg(args[2], "precision", 1, PY_SSIZE_T_MAX)) < 0)
        return NULL;
    /* no double's text changes past 767 digits: none has more significant
     * digits, %g drops trailing zeros, and no decimal exponent reaches 767 */
    precision = precision < 767 ? precision : 767;
    Py_buffer X;
    if (values(args[0], &X, 0, 0, "X") < 0)
        return NULL;
    const Py_ssize_t len = X.len / 8, cap = len * (precision + 8);
    PyObject *text = NULL;
    if (len % d != 0) {
        PyErr_Format(PyExc_ValueError, "X holds %zd values, not rows of %zd", len, d);
    } else if ((text = PyByteArray_FromStringAndSize(NULL, cap)) != NULL) {
        const int64_t size = format_rows(X.buf, len, d, (int)precision,
                                         PyByteArray_AS_STRING(text), cap);
        if (size < 0)
            PyErr_SetString(PyExc_RuntimeError, "format_rows could not write a fill as CSV text");
        if (size < 0 || PyByteArray_Resize(text, size) < 0)
            Py_CLEAR(text);
    }
    PyBuffer_Release(&X);
    return text;
}

/* apply_generator(diag, coords, n): the generator image of the 2^n reals
 * coords (each taken as float() takes it) under the flat diagonals diag
 * (see ladder), made by walk's merges in the order in which a fill sets the
 * coordinates.
 * The levels alternate between two vectors on the stack: a merge reads
 * level j - 1 of its block only, which no merge has overwritten yet. */
static PyObject *py_apply_generator(PyObject *Py_UNUSED(module), PyObject *const *args,
                                    Py_ssize_t nargs)
{
    Py_ssize_t n;
    Py_buffer diag;
    if (check_nargs("apply_generator", nargs, 3) < 0
        || (n = int_arg(args[2], "level", 0, LEVEL_LIMIT)) < 0 || ladder(args[0], &diag, n) < 0)
        return NULL;
    const Py_ssize_t d = (Py_ssize_t)1 << n;
    double v[2][1 << LEVEL_LIMIT], *a[LEVEL_LIMIT + 1];
    const double *D[LEVEL_LIMIT + 1];
    for (int L = 0; L <= n; L++) {
        a[L] = v[L & 1];
        D[L] = (const double *)diag.buf + ((Py_ssize_t)1 << L) - 1;
    }
    PyObject *image = NULL, *seq = PySequence_Fast(args[1], "coordinates must be a sequence");
    if (seq == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(seq) != d) {
        PyErr_Format(PyExc_ValueError, "%zd coordinates at level %zd",
                     PySequence_Fast_GET_SIZE(seq), n);
        goto done;
    }
    for (Py_ssize_t f = 0; f < d; f++) {
        PyObject *x = PyNumber_Float(PySequence_Fast_GET_ITEM(seq, f));
        if (x == NULL)
            goto done;
        a[0][f] = PyFloat_AS_DOUBLE(x);
        Py_DECREF(x);
    }
    for (Py_ssize_t p = 1; p < d; p += 2)
        merge(a, D, p, __builtin_ctzll((unsigned long long)p + 1));
    if ((image = PyTuple_New(d)) == NULL)
        goto done;
    for (Py_ssize_t f = 0; f < d; f++) {
        PyObject *x = PyFloat_FromDouble(a[n][f]);
        if (x == NULL) {
            Py_CLEAR(image);
            goto done;
        }
        PyTuple_SET_ITEM(image, f, x);
    }
done:
    Py_XDECREF(seq);
    PyBuffer_Release(&diag);
    return image;
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef entries[] = {
    ENTRY(state, "state(lower, upper, diag, n, size): a new walk of the box, to fill"),
    ENTRY(count, "count(lower, upper, diag, n): the number of points in the box"),
    ENTRY(fill, "fill(state): the next rows (K, X) of the walk, up to its size"),
    ENTRY(stream, "stream(lower, upper, diag, n, type, consumer): each point to consumer"),
    ENTRY(map_nodes, "map_nodes(X, d, s, v, u, bound): cubature nodes in place"),
    ENTRY(format_rows, "format_rows(X, d, precision): the CSV text of the rows"),
    ENTRY(apply_generator, "apply_generator(diag, coords, n): the generator image"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef walk_module = {
    PyModuleDef_HEAD_INIT, "_walk", "The compiled walker of chebfrolov.enumeration.", 0, entries,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__walk(void)
{
    return PyModule_Create(&walk_module);
}
