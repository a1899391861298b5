/* generated by repro.backends.cbackend — do not edit */

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


typedef struct {
    float f_v;
} S_ScalarFloat_0;

typedef struct WjSnap {
    WjArrF32 a0; /* self.grid.front */
    WjArrF32 a1; /* self.grid.back */
} WjSnap;

static void wj_SineGen_fill_2(WjEnv* env, WjSnap* snap, WjArrF32 v_arr, int64_t v_rank);
static void wj_SineGen_fill_3(WjEnv* env, WjSnap* snap, WjArrF32 v_arr, int64_t v_rank);
static int64_t wj_ThreeDIndexer_plane_5(WjEnv* env, WjSnap* snap);
static int64_t wj_ThreeDIndexer_index_6(WjEnv* env, WjSnap* snap, int64_t v_x, int64_t v_y, int64_t v_z);
static float wj_ScalarFloat_val_8(WjEnv* env, WjSnap* snap, S_ScalarFloat_0 v_self);
static S_ScalarFloat_0 wj_Dif3DSolver_solve_7(WjEnv* env, WjSnap* snap, S_ScalarFloat_0 v_c, S_ScalarFloat_0 v_xm, S_ScalarFloat_0 v_xp, S_ScalarFloat_0 v_ym, S_ScalarFloat_0 v_yp, S_ScalarFloat_0 v_zm, S_ScalarFloat_0 v_zp);
static void wj_StencilCPU3D_compute_4(WjEnv* env, WjSnap* snap);
static void wj_FloatGridDblB_swap_9(WjEnv* env, WjSnap* snap);
static double wj_StencilCPU3D_interior_sum_10(WjEnv* env, WjSnap* snap, WjArrF32 v_arr);
static double wj_StencilCPU3D_run_1(WjEnv* env, WjSnap* snap, int64_t v_steps);

static void wj_SineGen_fill_2(WjEnv* env, WjSnap* snap, WjArrF32 v_arr, int64_t v_rank) {
    (void)env; (void)snap;
    int64_t v_z;
    int64_t v_gz;
    int64_t v___licm3;
    double v___licm4;
    int64_t v_y;
    int64_t v___licm0;
    double v___licm1;
    double v___licm2;
    int64_t v_x;
    int64_t v_i;
    double v_v;
    { int64_t __b1 = INT64_C(6);
    for (v_z = INT64_C(0); v_z < __b1; v_z++) {
        v_gz = ((v_z) - (INT64_C(1)));
        v___licm3 = ((INT64_C(8)) * (v_z));
        v___licm4 = sin((double)(((double)(((3.141592653589793) * (((v_gz) + (1.0))))) / (double)(5.0))));
        { int64_t __b2 = INT64_C(8);
        for (v_y = INT64_C(0); v_y < __b2; v_y++) {
            v___licm0 = ((INT64_C(8)) * (((v_y) + (v___licm3))));
            v___licm1 = sin((double)(((double)(((3.141592653589793) * (((v_y) + (1.0))))) / (double)(9.0))));
            v___licm2 = v___licm4;
            { int64_t __b3 = INT64_C(8);
            for (v_x = INT64_C(0); v_x < __b3; v_x++) {
                v_i = ((v_x) + (v___licm0));
                v_v = ((((sin((double)(((double)(((3.141592653589793) * (((v_x) + (1.0))))) / (double)(9.0))))) * (v___licm1))) * (v___licm2));
                (v_arr).p[v_i] = ((float)(v_v));
            }
            }
        }
        }
    }
    }
}

static void wj_SineGen_fill_3(WjEnv* env, WjSnap* snap, WjArrF32 v_arr, int64_t v_rank) {
    (void)env; (void)snap;
    int64_t v_z;
    int64_t v_gz;
    int64_t v___licm3;
    double v___licm4;
    int64_t v_y;
    int64_t v___licm0;
    double v___licm1;
    double v___licm2;
    int64_t v_x;
    int64_t v_i;
    double v_v;
    { int64_t __b1 = INT64_C(6);
    for (v_z = INT64_C(0); v_z < __b1; v_z++) {
        v_gz = ((v_z) - (INT64_C(1)));
        v___licm3 = ((INT64_C(8)) * (v_z));
        v___licm4 = sin((double)(((double)(((3.141592653589793) * (((v_gz) + (1.0))))) / (double)(5.0))));
        { int64_t __b2 = INT64_C(8);
        for (v_y = INT64_C(0); v_y < __b2; v_y++) {
            v___licm0 = ((INT64_C(8)) * (((v_y) + (v___licm3))));
            v___licm1 = sin((double)(((double)(((3.141592653589793) * (((v_y) + (1.0))))) / (double)(9.0))));
            v___licm2 = v___licm4;
            { int64_t __b3 = INT64_C(8);
            for (v_x = INT64_C(0); v_x < __b3; v_x++) {
                v_i = ((v_x) + (v___licm0));
                v_v = ((((sin((double)(((double)(((3.141592653589793) * (((v_x) + (1.0))))) / (double)(9.0))))) * (v___licm1))) * (v___licm2));
                (v_arr).p[v_i] = ((float)(v_v));
            }
            }
        }
        }
    }
    }
}

static int64_t wj_ThreeDIndexer_plane_5(WjEnv* env, WjSnap* snap) {
    (void)env; (void)snap;
    return INT64_C(64);
}

static int64_t wj_ThreeDIndexer_index_6(WjEnv* env, WjSnap* snap, int64_t v_x, int64_t v_y, int64_t v_z) {
    (void)env; (void)snap;
    return ((v_x) + (((INT64_C(8)) * (((v_y) + (((INT64_C(8)) * (v_z))))))));
}

static float wj_ScalarFloat_val_8(WjEnv* env, WjSnap* snap, S_ScalarFloat_0 v_self) {
    (void)env; (void)snap;
    return (v_self).f_v;
}

static S_ScalarFloat_0 wj_Dif3DSolver_solve_7(WjEnv* env, WjSnap* snap, S_ScalarFloat_0 v_c, S_ScalarFloat_0 v_xm, S_ScalarFloat_0 v_xp, S_ScalarFloat_0 v_ym, S_ScalarFloat_0 v_yp, S_ScalarFloat_0 v_zm, S_ScalarFloat_0 v_zp) {
    (void)env; (void)snap;
    float v_value;
    v_value = ((((((((0.9399999976158142f) * (wj_ScalarFloat_val_8(env, snap, v_c)))) + (((0.009999999776482582f) * (((wj_ScalarFloat_val_8(env, snap, v_xm)) + (wj_ScalarFloat_val_8(env, snap, v_xp)))))))) + (((0.009999999776482582f) * (((wj_ScalarFloat_val_8(env, snap, v_ym)) + (wj_ScalarFloat_val_8(env, snap, v_yp)))))))) + (((0.009999999776482582f) * (((wj_ScalarFloat_val_8(env, snap, v_zm)) + (wj_ScalarFloat_val_8(env, snap, v_zp)))))));
    return ((S_ScalarFloat_0){ .f_v = v_value });
}

static void wj_StencilCPU3D_compute_4(WjEnv* env, WjSnap* snap) {
    (void)env; (void)snap;
    WjArrF32 v_src;
    WjArrF32 v_dst;
    int64_t v_z;
    int64_t v_y;
    int64_t v_x;
    int64_t v_i;
    S_ScalarFloat_0 v_c;
    S_ScalarFloat_0 v_xm;
    S_ScalarFloat_0 v_xp;
    S_ScalarFloat_0 v_ym;
    S_ScalarFloat_0 v_yp;
    S_ScalarFloat_0 v_zm;
    S_ScalarFloat_0 v_zp;
    S_ScalarFloat_0 v_r;
    v_src = snap->a0;
    v_dst = snap->a1;
    (void)(wj_ThreeDIndexer_plane_5(env, snap));
    { int64_t __b1 = INT64_C(5);
    for (v_z = INT64_C(1); v_z < __b1; v_z++) {
        { int64_t __b2 = INT64_C(7);
        for (v_y = INT64_C(1); v_y < __b2; v_y++) {
            { int64_t __b3 = INT64_C(7);
            for (v_x = INT64_C(1); v_x < __b3; v_x++) {
                v_i = wj_ThreeDIndexer_index_6(env, snap, v_x, v_y, v_z);
                v_c = ((S_ScalarFloat_0){ .f_v = (v_src).p[v_i] });
                v_xm = ((S_ScalarFloat_0){ .f_v = (v_src).p[((v_i) - (INT64_C(1)))] });
                v_xp = ((S_ScalarFloat_0){ .f_v = (v_src).p[((v_i) + (INT64_C(1)))] });
                v_ym = ((S_ScalarFloat_0){ .f_v = (v_src).p[((v_i) - (INT64_C(8)))] });
                v_yp = ((S_ScalarFloat_0){ .f_v = (v_src).p[((v_i) + (INT64_C(8)))] });
                v_zm = ((S_ScalarFloat_0){ .f_v = (v_src).p[((v_i) - (INT64_C(64)))] });
                v_zp = ((S_ScalarFloat_0){ .f_v = (v_src).p[((v_i) + (INT64_C(64)))] });
                v_r = wj_Dif3DSolver_solve_7(env, snap, v_c, v_xm, v_xp, v_ym, v_yp, v_zm, v_zp);
                (v_dst).p[v_i] = wj_ScalarFloat_val_8(env, snap, v_r);
            }
            }
        }
        }
    }
    }
}

static void wj_FloatGridDblB_swap_9(WjEnv* env, WjSnap* snap) {
    (void)env; (void)snap;
    WjArrF32 v_tmp;
    v_tmp = snap->a0;
    snap->a0 = snap->a1;
    snap->a1 = v_tmp;
}

static double wj_StencilCPU3D_interior_sum_10(WjEnv* env, WjSnap* snap, WjArrF32 v_arr) {
    (void)env; (void)snap;
    double v_total;
    int64_t v_z;
    int64_t v_y;
    int64_t v_x;
    v_total = 0.0;
    { int64_t __b1 = INT64_C(5);
    for (v_z = INT64_C(1); v_z < __b1; v_z++) {
        { int64_t __b2 = INT64_C(7);
        for (v_y = INT64_C(1); v_y < __b2; v_y++) {
            { int64_t __b3 = INT64_C(7);
            for (v_x = INT64_C(1); v_x < __b3; v_x++) {
                v_total = ((v_total) + ((v_arr).p[wj_ThreeDIndexer_index_6(env, snap, v_x, v_y, v_z)]));
            }
            }
        }
        }
    }
    }
    return v_total;
}

static double wj_StencilCPU3D_run_1(WjEnv* env, WjSnap* snap, int64_t v_steps) {
    (void)env; (void)snap;
    double v_t0;
    int64_t v_s;
    double v_t1;
    WjArrF32 v___cse0;
    double v_total;
    WjArrF64 v_tbuf;
    wj_SineGen_fill_2(env, snap, snap->a0, INT64_C(0));
    wj_SineGen_fill_3(env, snap, snap->a1, INT64_C(0));
    v_t0 = env->mpi_wtime(env->h);
    { int64_t __b1 = INT64_C(2);
    for (v_s = INT64_C(0); v_s < __b1; v_s++) {
        wj_StencilCPU3D_compute_4(env, snap);
        wj_FloatGridDblB_swap_9(env, snap);
    }
    }
    v_t1 = env->mpi_wtime(env->h);
    v___cse0 = snap->a0;
    v_total = wj_StencilCPU3D_interior_sum_10(env, snap, v___cse0);
    v_tbuf = wj_zeros_F64((int64_t)(INT64_C(1)));
    (v_tbuf).p[INT64_C(0)] = ((v_t1) - (v_t0));
    wj_output_F64(env, "secs", v_tbuf, 0, INT64_C(1));
    wj_output_F32(env, "grid", v___cse0, 1, INT64_C(384));
    return v_total;
}

static void wj_bind(WjSnap* snap) {
    (void)snap;
}

int64_t wj_snap_size(void) { return (int64_t)sizeof(WjSnap); }

void wj_entry(WjEnv* env, void* snapbuf, void** sp, int64_t* sl, int64_t* iv, double* dv, void* ret_out) {
    WjSnap* snap = (WjSnap*)snapbuf;
    memset(snap, 0, sizeof(WjSnap));
    memset(((WjOut*)env->h)->set, 0, sizeof(int64_t) * 2);
    snap->a0 = (WjArrF32){ (float*)sp[0], sl[0] };
    snap->a1 = (WjArrF32){ (float*)sp[1], sl[1] };
    wj_bind(snap);
    (void)iv; (void)dv; (void)sp; (void)sl;
    *(double*)ret_out = wj_StencilCPU3D_run_1(env, snap, INT64_C(2));
}
