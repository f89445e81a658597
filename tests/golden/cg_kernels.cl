/*
 * OpenCL kernels for model 'cg'.
 * generated by gmodelc; model digest sha256:06b018e8fa29
 */

#pragma OPENCL EXTENSION cl_khr_fp64 : enable

/* copy: init_r, init_p */
__kernel void k_copy_f64(const int first,
                         const int count,
                         __global const double* src,
                         __global double* dst)
{
    const int gid = get_global_id(0);
    if (gid >= count) return;
    const int i = first + gid;
    dst[i] = src[i];
}

/* dot_partial: dot_bb, loop.dot_rr, loop.dot_pap, loop.dot_rrn */
__kernel void k_dot_partial_f64(const int first,
                                const int count,
                                __global const double* a,
                                __global const double* b,
                                __global double* partials)
{
    const int gid = get_global_id(0);
    if (gid >= count) return;
    if (get_local_id(0) != 0) return;
    int lim = gid + (int)get_local_size(0);
    if (lim > count) lim = count;
    double acc = 0.0;
    for (int k = gid; k < lim; ++k) {
        acc += a[first + k] * b[first + k];
    }
    partials[get_group_id(0)] = acc;
}

/* spmv_csr: loop.spmv */
__kernel void k_spmv_csr_i32_f64(const int first,
                                 const int count,
                                 __global const int* rowptr,
                                 __global const int* colidx,
                                 __global const double* values,
                                 __global const double* x,
                                 __global double* y)
{
    const int gid = get_global_id(0);
    if (gid >= count) return;
    const int i = first + gid;
    double acc = 0.0;
    for (int k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        acc += values[k] * x[colidx[k]];
    }
    y[i] = acc;
}

/* axpy: loop.axpy_x, loop.axpy_r */
__kernel void k_axpy_f64(const int first,
                         const int count,
                         __global double* y,
                         __global const double* x,
                         const double a)
{
    const int gid = get_global_id(0);
    if (gid >= count) return;
    const int i = first + gid;
    y[i] += a * x[i];
}

/* scale: loop.scale_p */
__kernel void k_scale_f64(const int first,
                          const int count,
                          __global double* y,
                          const double a)
{
    const int gid = get_global_id(0);
    if (gid >= count) return;
    const int i = first + gid;
    y[i] *= a;
}

/* axpy: loop.axpy_p */
__kernel void k_axpy_f64_2(const int first,
                           const int count,
                           __global double* y,
                           __global const double* x)
{
    const int gid = get_global_id(0);
    if (gid >= count) return;
    const int i = first + gid;
    y[i] += x[i];
}
