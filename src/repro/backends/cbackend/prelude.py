"""The C runtime prelude embedded in every generated translation unit.

Defines the array value types, the host-callback table (``WjEnv`` — its
layout must match ``bridge.WjEnvStruct`` field for field), the kernel
geometry struct, and small helpers that give both backends identical numeric
semantics (Python floor division/modulo) and single-evaluation array
intrinsics.
"""

PRELUDE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ---- array values ---------------------------------------------------- */
typedef struct { float*   p; int64_t n; } WjArrF32;
typedef struct { double*  p; int64_t n; } WjArrF64;
typedef struct { int32_t* p; int64_t n; } WjArrI32;
typedef struct { int64_t* p; int64_t n; } WjArrI64;
typedef struct { uint8_t* p; int64_t n; } WjArrB;

/* dtype codes shared with the host bridge */
enum { WJ_F32 = 1, WJ_F64 = 2, WJ_I32 = 3, WJ_I64 = 4, WJ_B = 5 };

/* ---- host callback table (layout mirrored by bridge.WjEnvStruct) ----- */
typedef struct WjEnv {
    void*   h;
    int64_t (*mpi_rank)(void* h);
    int64_t (*mpi_size)(void* h);
    void    (*mpi_send)(void* h, const void* p, int64_t count, int32_t dt,
                        int64_t dest, int64_t tag);
    void    (*mpi_recv)(void* h, void* p, int64_t count, int32_t dt,
                        int64_t src, int64_t tag);
    void    (*mpi_sendrecv)(void* h, const void* sp, int64_t sc,
                            int64_t dest, void* rp, int64_t rc, int64_t src,
                            int32_t dt, int64_t tag);
    void    (*mpi_barrier)(void* h);
    double  (*mpi_allreduce_sum)(void* h, double v);
    void    (*mpi_allreduce_sum_arr)(void* h, void* p, int64_t count, int32_t dt);
    void    (*mpi_bcast)(void* h, void* p, int64_t count, int32_t dt, int64_t root);
    void    (*mpi_gather)(void* h, const void* p, int64_t count, void* out,
                          int64_t outcount, int32_t dt, int64_t root);
    double  (*mpi_wtime)(void* h);
    void    (*kernel_begin)(void* h);
    void    (*kernel_end)(void* h);
    void    (*gpu_transfer)(void* h, int64_t nbytes);
    void    (*output)(void* h, const char* label, const void* p,
                      int64_t count, int32_t dt);
} WjEnv;

/* the call frame's output table, which env->h points to (bridge.WjOutStruct):
 * one buffer per wj.output label whose length is known at translation, and
 * whether this call wrote it (wj_entry clears the flags) */
typedef struct WjOut {
    void**   p;
    int64_t* set;
} WjOut;

/* ---- kernel geometry (one logical CUDA thread) ------------------------ */
typedef struct {
    int64_t tx, ty, tz;     /* threadIdx */
    int64_t bx, by, bz;     /* blockIdx  */
    int64_t bdx, bdy, bdz;  /* blockDim  */
    int64_t gdx, gdy, gdz;  /* gridDim   */
} WjGeo;

/* ---- Python-semantics integer division -------------------------------- */
static inline int64_t wj_floordiv_i64(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}
static inline int64_t wj_mod_i64(int64_t a, int64_t b) {
    int64_t r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
/* floor(a/b) alone diverges from CPython when a/b underflows (subnormal a:
 * -5e-324 // 3.0 is -1.0 in Python, but floor(-5e-324/3.0) == floor(-0.0)
 * == -0.0).  Follow CPython's float_divmod: derive the quotient from fmod
 * so it stays consistent with wj_mod_f64. */
static inline double wj_floordiv_f64(double a, double b) {
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    if (mod != 0.0 && ((b < 0.0) != (mod < 0.0)))
        div -= 1.0;
    if (div != 0.0) {
        double floordiv = floor(div);
        if (div - floordiv > 0.5)
            floordiv += 1.0;
        return floordiv;
    }
    return copysign(0.0, a / b);
}
static inline double wj_mod_f64(double a, double b) {
    double r = fmod(a, b);
    return (r != 0.0 && ((r < 0.0) != (b < 0.0))) ? r + b : r;
}

/* ---- deterministic RNG intrinsics --------------------------------------
 * One 64-bit LCG step (Knuth MMIX constants) computed in uint64 arithmetic
 * so the wrap-around is well defined, reinterpreted as int64; the Python
 * implementations mask to the same 64 bits, so guest RNG streams are
 * bit-identical on every backend. */
static inline int64_t wj_lcg64(int64_t s) {
    return (int64_t)((uint64_t)s * UINT64_C(6364136223846793005)
                     + UINT64_C(1442695040888963407));
}
static inline double wj_u01(int64_t s) {
    /* top 53 bits onto [0, 1): exact in a double */
    return (double)((uint64_t)s >> 11) * (1.0 / 9007199254740992.0);
}

/* ---- min/max/abs ------------------------------------------------------- */
static inline int64_t wj_min_i64(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t wj_max_i64(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int32_t wj_min_i32(int32_t a, int32_t b) { return a < b ? a : b; }
static inline int32_t wj_max_i32(int32_t a, int32_t b) { return a > b ? a : b; }
static inline double  wj_min_f64(double a, double b)   { return a < b ? a : b; }
static inline double  wj_max_f64(double a, double b)   { return a > b ? a : b; }
static inline float   wj_min_f32(float a, float b)     { return a < b ? a : b; }
static inline float   wj_max_f32(float a, float b)     { return a > b ? a : b; }
static inline int64_t wj_abs_i64(int64_t a) { return a < 0 ? -a : a; }
static inline int32_t wj_abs_i32(int32_t a) { return a < 0 ? -a : a; }

/* ---- bounds-checked element access (debug builds only) ------------------
 * The paper's translated code has no array boundary checks (§3.3 "Other
 * issues" — they are the developer's responsibility).  The debug build
 * routes every access through these helpers; violations are counted and
 * reported by the host bridge after the run (out-of-range loads read
 * element 0, stores are dropped, so the run completes deterministically). */
static int64_t wj_oob_count = 0;
int64_t wj_oob_count_take(void) {
    int64_t c = wj_oob_count;
    wj_oob_count = 0;
    return c;
}

/* ---- allocation -------------------------------------------------------- */
#define WJ_DEF_ARR(NAME, T, DT)                                              \
    static inline WjArr##NAME wj_zeros_##NAME(int64_t n) {                   \
        WjArr##NAME a;                                                       \
        a.p = (T*)calloc((size_t)(n > 0 ? n : 0), sizeof(T));                \
        a.n = n;                                                             \
        return a;                                                            \
    }                                                                        \
    static inline void wj_free_##NAME(WjArr##NAME a) { free(a.p); }          \
    static inline WjArr##NAME wj_gpu_copy_##NAME(WjEnv* env, WjArr##NAME a) {\
        WjArr##NAME d;                                                       \
        d.p = (T*)malloc(sizeof(T) * (size_t)(a.n > 0 ? a.n : 0));           \
        if (a.n > 0) memcpy(d.p, a.p, sizeof(T) * (size_t)a.n);              \
        d.n = a.n;                                                           \
        env->gpu_transfer(env->h, a.n * (int64_t)sizeof(T));                 \
        return d;                                                            \
    }                                                                        \
    static inline T wj_ld_##NAME(WjArr##NAME a, int64_t i) {                 \
        if (i < 0 || i >= a.n) { wj_oob_count++; return a.n ? a.p[0] : (T)0;}\
        return a.p[i];                                                       \
    }                                                                        \
    static inline void wj_st_##NAME(WjArr##NAME a, int64_t i, T v) {         \
        if (i < 0 || i >= a.n) { wj_oob_count++; return; }                   \
        a.p[i] = v;                                                          \
    }                                                                        \
    static inline void wj_mpi_send_##NAME(WjEnv* env, WjArr##NAME a,         \
                                          int64_t dest, int64_t tag) {       \
        env->mpi_send(env->h, a.p, a.n, DT, dest, tag);                      \
    }                                                                        \
    static inline void wj_mpi_recv_##NAME(WjEnv* env, WjArr##NAME a,         \
                                          int64_t src, int64_t tag) {        \
        env->mpi_recv(env->h, a.p, a.n, DT, src, tag);                       \
    }                                                                        \
    static inline void wj_mpi_sendrecv_##NAME(WjEnv* env, WjArr##NAME s,     \
                                              int64_t dest, WjArr##NAME r,   \
                                              int64_t src, int64_t tag) {    \
        env->mpi_sendrecv(env->h, s.p, s.n, dest, r.p, r.n, src, DT, tag);   \
    }                                                                        \
    static inline void wj_mpi_send_part_##NAME(WjEnv* env, WjArr##NAME a,    \
                                               int64_t off, int64_t cnt,     \
                                               int64_t dest, int64_t tag) {  \
        env->mpi_send(env->h, a.p + off, cnt, DT, dest, tag);                \
    }                                                                        \
    static inline void wj_mpi_recv_part_##NAME(WjEnv* env, WjArr##NAME a,    \
                                               int64_t off, int64_t cnt,     \
                                               int64_t src, int64_t tag) {   \
        env->mpi_recv(env->h, a.p + off, cnt, DT, src, tag);                 \
    }                                                                        \
    static inline void wj_mpi_sendrecv_part_##NAME(                          \
        WjEnv* env, WjArr##NAME s, int64_t soff, int64_t cnt, int64_t dest,  \
        WjArr##NAME r, int64_t roff, int64_t src, int64_t tag) {             \
        env->mpi_sendrecv(env->h, s.p + soff, cnt, dest, r.p + roff, cnt,    \
                          src, DT, tag);                                     \
    }                                                                        \
    static inline void wj_mpi_bcast_##NAME(WjEnv* env, WjArr##NAME a,        \
                                           int64_t root) {                   \
        env->mpi_bcast(env->h, a.p, a.n, DT, root);                          \
    }                                                                        \
    static inline void wj_mpi_gather_##NAME(WjEnv* env, WjArr##NAME a,       \
                                            WjArr##NAME out, int64_t root) { \
        env->mpi_gather(env->h, a.p, a.n, out.p, out.n, DT, root);           \
    }                                                                        \
    static inline void wj_mpi_allreduce_##NAME(WjEnv* env, WjArr##NAME a) {  \
        env->mpi_allreduce_sum_arr(env->h, a.p, a.n, DT);                    \
    }                                                                        \
    /* a site shaped like its label's frame buffer k (n >= 0) copies into    \
     * it; any other site calls the host and clears the buffer's flag, so    \
     * the call's last write wins (k < 0: the label has no buffer) */        \
    static inline void wj_output_##NAME(WjEnv* env, const char* label,       \
                                        WjArr##NAME a, int64_t k,            \
                                        int64_t n) {                         \
        WjOut* out = (WjOut*)env->h;                                         \
        if (n >= 0 && a.n == n) {                                            \
            memcpy(out->p[k], a.p, sizeof(T) * (size_t)n);                   \
            out->set[k] = 1;                                                 \
            return;                                                          \
        }                                                                    \
        if (k >= 0) out->set[k] = 0;                                         \
        env->output(env->h, label, a.p, a.n, DT);                            \
    }

WJ_DEF_ARR(F32, float, WJ_F32)
WJ_DEF_ARR(F64, double, WJ_F64)
WJ_DEF_ARR(I32, int32_t, WJ_I32)
WJ_DEF_ARR(I64, int64_t, WJ_I64)
"""

#: appended after the prelude only when the program contains at least
#: one `#pragma omp parallel for` loop.  Compiles unchanged without
#: -fopenmp (the pragmas are ignored and wj_omp_max_threads reports 1),
#: which is exactly the sequential-degradation contract of REPRO_OMP.
OMP_BLOCK = r"""
#ifdef _OPENMP
#include <omp.h>
#endif
int64_t wj_omp_max_threads(void) {
#ifdef _OPENMP
    return (int64_t)omp_get_max_threads();
#else
    return 1;
#endif
}
"""

#: appended after the prelude only when the program calls wj.dgemm.
#: With a BLAS detected at build time (-DWJ_HAVE_CBLAS plus the link
#: flag, see build.py) the call drops into cblas_dgemm; otherwise the
#: fallback loop nest runs — its accumulation order matches the
#: intrinsic's Python reference implementation bit for bit, so only the
#: cblas path trades bit-exactness for vendor-kernel speed.
DGEMM_BLOCK = r"""
#ifdef WJ_HAVE_CBLAS
void cblas_dgemm(int Order, int TransA, int TransB, int M, int N, int K,
                 double alpha, const double* A, int lda, const double* B,
                 int ldb, double beta, double* C, int ldc);
#endif
static inline void wj_dgemm(WjArrF64 a, WjArrF64 b, WjArrF64 c,
                            int64_t m, int64_t n, int64_t k) {
#ifdef WJ_HAVE_CBLAS
    /* 101 = CblasRowMajor, 111 = CblasNoTrans */
    cblas_dgemm(101, 111, 111, (int)m, (int)n, (int)k, 1.0, a.p, (int)k,
                b.p, (int)n, 1.0, c.p, (int)n);
#else
    int64_t i;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i = 0; i < m; i++) {
        int64_t j;
        for (j = 0; j < n; j++) {
            double acc = c.p[i * n + j];
            int64_t t;
            for (t = 0; t < k; t++) {
                acc += a.p[i * k + t] * b.p[t * n + j];
            }
            c.p[i * n + j] = acc;
        }
    }
#endif
}
"""
