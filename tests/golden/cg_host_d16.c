/*
 * OpenCL host program for model 'cg' on 16 device(s).
 * generated by gmodelc; model digest sha256:06b018e8fa29
 */
#include <CL/cl.h>
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define CHECK(err, what) \
    do { if ((err) != CL_SUCCESS) { \
        fprintf(stderr, "%s failed: %d\n", (what), (int)(err)); \
        exit(2); } } while (0)

static char* read_text_file(const char* path, size_t* size_out)
{
    FILE* f = fopen(path, "rb");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fseek(f, 0, SEEK_SET);
    char* text = (char*)malloc((size_t)size + 1);
    fread(text, 1, (size_t)size, f);
    text[size] = 0;
    fclose(f);
    if (size_out) *size_out = (size_t)size;
    return text;
}

static void load_doubles(const char* path, double* out, long count)
{
    FILE* f = fopen(path, "r");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    for (long i = 0; i < count; ++i) {
        if (fscanf(f, "%lf", &out[i]) != 1) { fclose(f); exit(2); }
    }
    fclose(f);
}

static void load_ints(const char* path, int* out, long count)
{
    FILE* f = fopen(path, "r");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    for (long i = 0; i < count; ++i) {
        if (fscanf(f, "%d", &out[i]) != 1) { fclose(f); exit(2); }
    }
    fclose(f);
}

static void store_doubles(const char* path, const double* data, long count)
{
    FILE* f = fopen(path, "w");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    for (long i = 0; i < count; ++i) fprintf(f, "%.17g\n", data[i]);
    fclose(f);
}

int main(void)
{
    enum { DEVICE_COUNT = 16 };
    cl_int err;
    cl_platform_id cl_platform;
    err = clGetPlatformIDs(1, &cl_platform, NULL);
    CHECK(err, "clGetPlatformIDs");
    cl_device_id devices[DEVICE_COUNT];
    err = clGetDeviceIDs(cl_platform, CL_DEVICE_TYPE_ALL, DEVICE_COUNT, devices, NULL);
    CHECK(err, "clGetDeviceIDs");
    cl_context context = clCreateContext(NULL, DEVICE_COUNT, devices, NULL, NULL, &err);
    CHECK(err, "clCreateContext");
    cl_command_queue queues[DEVICE_COUNT];
    for (int d = 0; d < DEVICE_COUNT; ++d) {
        queues[d] = clCreateCommandQueue(context, devices[d], 0, &err);
        CHECK(err, "clCreateCommandQueue");
    }

    size_t source_size;
    char* source = read_text_file("cg_kernels.cl", &source_size);
    cl_program program = clCreateProgramWithSource(context, 1, (const char**)&source, &source_size, &err);
    CHECK(err, "clCreateProgramWithSource");
    err = clBuildProgram(program, DEVICE_COUNT, devices, NULL, NULL, NULL);
    CHECK(err, "clBuildProgram");

    cl_kernel k_init_r = clCreateKernel(program, "k_init_r", &err);
    CHECK(err, "clCreateKernel k_init_r");
    cl_kernel k_init_p = clCreateKernel(program, "k_init_p", &err);
    CHECK(err, "clCreateKernel k_init_p");
    cl_kernel k_dot_bb = clCreateKernel(program, "k_dot_bb", &err);
    CHECK(err, "clCreateKernel k_dot_bb");
    cl_kernel k_loop_dot_rr = clCreateKernel(program, "k_loop_dot_rr", &err);
    CHECK(err, "clCreateKernel k_loop_dot_rr");
    cl_kernel k_loop_spmv = clCreateKernel(program, "k_loop_spmv", &err);
    CHECK(err, "clCreateKernel k_loop_spmv");
    cl_kernel k_loop_dot_pap = clCreateKernel(program, "k_loop_dot_pap", &err);
    CHECK(err, "clCreateKernel k_loop_dot_pap");
    cl_kernel k_loop_axpy_x = clCreateKernel(program, "k_loop_axpy_x", &err);
    CHECK(err, "clCreateKernel k_loop_axpy_x");
    cl_kernel k_loop_axpy_r = clCreateKernel(program, "k_loop_axpy_r", &err);
    CHECK(err, "clCreateKernel k_loop_axpy_r");
    cl_kernel k_loop_dot_rrn = clCreateKernel(program, "k_loop_dot_rrn", &err);
    CHECK(err, "clCreateKernel k_loop_dot_rrn");
    cl_kernel k_loop_scale_p = clCreateKernel(program, "k_loop_scale_p", &err);
    CHECK(err, "clCreateKernel k_loop_scale_p");
    cl_kernel k_loop_axpy_p = clCreateKernel(program, "k_loop_axpy_p", &err);
    CHECK(err, "clCreateKernel k_loop_axpy_p");

    /* host-resident scalars */
    double h_dot_bb_s = 0.0;
    double h_loop_dot_rr_s = 0.0;
    double h_loop_dot_pap_s = 0.0;
    double h_loop_alpha_q = 0.0;
    double h_loop_neg_alpha_z = 0.0;
    double h_loop_dot_rrn_s = 0.0;
    double h_loop_relres = 0.0;
    double h_loop_beta_q = 0.0;

    /* one buffer per device-side data allocation */
    cl_mem buf_rowptr = clCreateBuffer(context, CL_MEM_READ_WRITE, 530608, NULL, &err);
    CHECK(err, "clCreateBuffer rowptr");
    cl_mem buf_colidx = clCreateBuffer(context, CL_MEM_READ_WRITE, 13771804, NULL, &err);
    CHECK(err, "clCreateBuffer colidx");
    cl_mem buf_values = clCreateBuffer(context, CL_MEM_READ_WRITE, 27543608, NULL, &err);
    CHECK(err, "clCreateBuffer values");
    cl_mem buf_b = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer b");
    cl_mem buf_init_r_dst = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer init_r_dst");
    cl_mem buf_init_p_dst = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer init_p_dst");
    cl_mem buf_x = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer x");
    cl_mem buf_loop_spmv_y = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer loop_spmv_y");

    /* work-group partial buffers for dot reductions */
    cl_mem part_k_dot_bb_d0 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d0 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d1 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d1 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d2 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d2 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d3 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d3 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d4 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d4 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d5 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d5 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d6 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d6 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d7 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d7 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d8 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d8 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d9 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d9 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d10 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d10 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d11 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d11 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d12 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d12 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d13 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d13 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d14 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d14 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_dot_bb_d15 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d15 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d0 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d0 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d1 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d1 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d2 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d2 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d3 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d3 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d4 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d4 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d5 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d5 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d6 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d6 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d7 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d7 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d8 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d8 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d9 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d9 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d10 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d10 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d11 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d11 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d12 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d12 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d13 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d13 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d14 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d14 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rr_d15 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rr_d15 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d0 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d0 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d1 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d1 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d2 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d2 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d3 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d3 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d4 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d4 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d5 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d5 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d6 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d6 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d7 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d7 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d8 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d8 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d9 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d9 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d10 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d10 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d11 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d11 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d12 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d12 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d13 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d13 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d14 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d14 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_pap_d15 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_pap_d15 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d0 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d0 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d1 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d1 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d2 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d2 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d3 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d3 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d4 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d4 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d5 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d5 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d6 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d6 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d7 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d7 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d8 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d8 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d9 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d9 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d10 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d10 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d11 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d11 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d12 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d12 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d13 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d13 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d14 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d14 = (double*)malloc(1037 * sizeof(double));
    cl_mem part_k_loop_dot_rrn_d15 = clCreateBuffer(context, CL_MEM_READ_WRITE, 1037 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_loop_dot_rrn_d15 = (double*)malloc(1037 * sizeof(double));

    /* load and upload input data */
    int* in_rowptr = (int*)malloc(530608);
    load_ints("cg_rowptr.txt", in_rowptr, 132652);
    err = clEnqueueWriteBuffer(queues[0], buf_rowptr, CL_TRUE, 0, 530608, in_rowptr, 0, NULL, NULL);
    CHECK(err, "write rowptr");
    int* in_colidx = (int*)malloc(13771804);
    load_ints("cg_colidx.txt", in_colidx, 3442951);
    err = clEnqueueWriteBuffer(queues[0], buf_colidx, CL_TRUE, 0, 13771804, in_colidx, 0, NULL, NULL);
    CHECK(err, "write colidx");
    double* in_values = (double*)malloc(27543608);
    load_doubles("cg_values.txt", in_values, 3442951);
    err = clEnqueueWriteBuffer(queues[0], buf_values, CL_TRUE, 0, 27543608, in_values, 0, NULL, NULL);
    CHECK(err, "write values");
    double* in_b = (double*)malloc(1061208);
    load_doubles("cg_b.txt", in_b, 132651);
    err = clEnqueueWriteBuffer(queues[0], buf_b, CL_TRUE, 0, 1061208, in_b, 0, NULL, NULL);
    CHECK(err, "write b");

    int iters = 0;
    int converged = 1;

    {
        const cl_int first = 0;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[0], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 8291;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[1], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 16582;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[2], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 24873;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[3], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 33164;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[4], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 41455;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[5], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 49746;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[6], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 58037;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[7], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 66328;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[8], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 74619;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[9], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 82910;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[10], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 91201;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[11], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 99491;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[12], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 107781;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[13], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 116071;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[14], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    {
        const cl_int first = 124361;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_r, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_r, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_r, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init_r, 3, sizeof(cl_mem), &buf_init_r_dst);
        err = clEnqueueNDRangeKernel(queues[15], k_init_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_r");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    clFinish(queues[2]);
    clFinish(queues[3]);
    clFinish(queues[4]);
    clFinish(queues[5]);
    clFinish(queues[6]);
    clFinish(queues[7]);
    clFinish(queues[8]);
    clFinish(queues[9]);
    clFinish(queues[10]);
    clFinish(queues[11]);
    clFinish(queues[12]);
    clFinish(queues[13]);
    clFinish(queues[14]);
    clFinish(queues[15]);
    {
        const cl_int first = 0;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[0], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 8291;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[1], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 16582;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[2], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 24873;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[3], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 33164;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[4], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 41455;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[5], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 49746;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[6], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 58037;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[7], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 66328;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[8], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 74619;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[9], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 82910;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[10], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 91201;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[11], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 99491;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[12], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 107781;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[13], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 116071;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[14], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    {
        const cl_int first = 124361;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_init_p, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init_p, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init_p, 2, sizeof(cl_mem), &buf_init_r_dst);
        clSetKernelArg(k_init_p, 3, sizeof(cl_mem), &buf_init_p_dst);
        err = clEnqueueNDRangeKernel(queues[15], k_init_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init_p");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    clFinish(queues[2]);
    clFinish(queues[3]);
    clFinish(queues[4]);
    clFinish(queues[5]);
    clFinish(queues[6]);
    clFinish(queues[7]);
    clFinish(queues[8]);
    clFinish(queues[9]);
    clFinish(queues[10]);
    clFinish(queues[11]);
    clFinish(queues[12]);
    clFinish(queues[13]);
    clFinish(queues[14]);
    clFinish(queues[15]);
    {
        const cl_int first = 0;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d0);
        err = clEnqueueNDRangeKernel(queues[0], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 8291;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d1);
        err = clEnqueueNDRangeKernel(queues[1], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 16582;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d2);
        err = clEnqueueNDRangeKernel(queues[2], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 24873;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d3);
        err = clEnqueueNDRangeKernel(queues[3], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 33164;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d4);
        err = clEnqueueNDRangeKernel(queues[4], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 41455;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d5);
        err = clEnqueueNDRangeKernel(queues[5], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 49746;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d6);
        err = clEnqueueNDRangeKernel(queues[6], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 58037;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d7);
        err = clEnqueueNDRangeKernel(queues[7], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 66328;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d8);
        err = clEnqueueNDRangeKernel(queues[8], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 74619;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d9);
        err = clEnqueueNDRangeKernel(queues[9], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 82910;
        const cl_int count = 8291;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d10);
        err = clEnqueueNDRangeKernel(queues[10], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 91201;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d11);
        err = clEnqueueNDRangeKernel(queues[11], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 99491;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d12);
        err = clEnqueueNDRangeKernel(queues[12], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 107781;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d13);
        err = clEnqueueNDRangeKernel(queues[13], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 116071;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d14);
        err = clEnqueueNDRangeKernel(queues[14], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 124361;
        const cl_int count = 8290;
        const size_t global_size = 8296;
        const size_t local_size = 8;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d15);
        err = clEnqueueNDRangeKernel(queues[15], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    clFinish(queues[2]);
    clFinish(queues[3]);
    clFinish(queues[4]);
    clFinish(queues[5]);
    clFinish(queues[6]);
    clFinish(queues[7]);
    clFinish(queues[8]);
    clFinish(queues[9]);
    clFinish(queues[10]);
    clFinish(queues[11]);
    clFinish(queues[12]);
    clFinish(queues[13]);
    clFinish(queues[14]);
    clFinish(queues[15]);
    h_dot_bb_s = 0.0;
    err = clEnqueueReadBuffer(queues[0], part_k_dot_bb_d0, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d0, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d0[g];
    err = clEnqueueReadBuffer(queues[1], part_k_dot_bb_d1, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d1, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d1[g];
    err = clEnqueueReadBuffer(queues[2], part_k_dot_bb_d2, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d2, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d2[g];
    err = clEnqueueReadBuffer(queues[3], part_k_dot_bb_d3, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d3, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d3[g];
    err = clEnqueueReadBuffer(queues[4], part_k_dot_bb_d4, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d4, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d4[g];
    err = clEnqueueReadBuffer(queues[5], part_k_dot_bb_d5, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d5, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d5[g];
    err = clEnqueueReadBuffer(queues[6], part_k_dot_bb_d6, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d6, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d6[g];
    err = clEnqueueReadBuffer(queues[7], part_k_dot_bb_d7, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d7, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d7[g];
    err = clEnqueueReadBuffer(queues[8], part_k_dot_bb_d8, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d8, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d8[g];
    err = clEnqueueReadBuffer(queues[9], part_k_dot_bb_d9, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d9, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d9[g];
    err = clEnqueueReadBuffer(queues[10], part_k_dot_bb_d10, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d10, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d10[g];
    err = clEnqueueReadBuffer(queues[11], part_k_dot_bb_d11, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d11, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d11[g];
    err = clEnqueueReadBuffer(queues[12], part_k_dot_bb_d12, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d12, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d12[g];
    err = clEnqueueReadBuffer(queues[13], part_k_dot_bb_d13, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d13, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d13[g];
    err = clEnqueueReadBuffer(queues[14], part_k_dot_bb_d14, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d14, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d14[g];
    err = clEnqueueReadBuffer(queues[15], part_k_dot_bb_d15, CL_TRUE, 0, 1037 * sizeof(double), ph_k_dot_bb_d15, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 1037; ++g) h_dot_bb_s += ph_k_dot_bb_d15[g];
    /* loop loop: until h_loop_relres <= 1e-10 */
    converged = 0;
    while (iters < 132651) {
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d0);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d1);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d2);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d3);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d4);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d5);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d6);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d7);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d8);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d9);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d10);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d11);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d12);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d13);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d14);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rr, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rr, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rr, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rr, 4, sizeof(cl_mem), &part_k_loop_dot_rr_d15);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_dot_rr, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rr");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        h_loop_dot_rr_s = 0.0;
        err = clEnqueueReadBuffer(queues[0], part_k_loop_dot_rr_d0, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d0, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d0[g];
        err = clEnqueueReadBuffer(queues[1], part_k_loop_dot_rr_d1, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d1, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d1[g];
        err = clEnqueueReadBuffer(queues[2], part_k_loop_dot_rr_d2, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d2, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d2[g];
        err = clEnqueueReadBuffer(queues[3], part_k_loop_dot_rr_d3, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d3, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d3[g];
        err = clEnqueueReadBuffer(queues[4], part_k_loop_dot_rr_d4, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d4, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d4[g];
        err = clEnqueueReadBuffer(queues[5], part_k_loop_dot_rr_d5, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d5, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d5[g];
        err = clEnqueueReadBuffer(queues[6], part_k_loop_dot_rr_d6, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d6, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d6[g];
        err = clEnqueueReadBuffer(queues[7], part_k_loop_dot_rr_d7, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d7, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d7[g];
        err = clEnqueueReadBuffer(queues[8], part_k_loop_dot_rr_d8, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d8, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d8[g];
        err = clEnqueueReadBuffer(queues[9], part_k_loop_dot_rr_d9, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d9, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d9[g];
        err = clEnqueueReadBuffer(queues[10], part_k_loop_dot_rr_d10, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d10, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d10[g];
        err = clEnqueueReadBuffer(queues[11], part_k_loop_dot_rr_d11, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d11, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d11[g];
        err = clEnqueueReadBuffer(queues[12], part_k_loop_dot_rr_d12, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d12, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d12[g];
        err = clEnqueueReadBuffer(queues[13], part_k_loop_dot_rr_d13, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d13, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d13[g];
        err = clEnqueueReadBuffer(queues[14], part_k_loop_dot_rr_d14, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d14, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d14[g];
        err = clEnqueueReadBuffer(queues[15], part_k_loop_dot_rr_d15, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rr_d15, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rr");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rr_s += ph_k_loop_dot_rr_d15[g];
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_spmv, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_spmv, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_spmv, 2, sizeof(cl_mem), &buf_rowptr);
            clSetKernelArg(k_loop_spmv, 3, sizeof(cl_mem), &buf_colidx);
            clSetKernelArg(k_loop_spmv, 4, sizeof(cl_mem), &buf_values);
            clSetKernelArg(k_loop_spmv, 5, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_spmv, 6, sizeof(cl_mem), &buf_loop_spmv_y);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_spmv");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d0);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d1);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d2);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d3);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d4);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d5);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d6);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d7);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d8);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d9);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d10);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d11);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d12);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d13);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d14);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_pap, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_pap, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_pap, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_dot_pap, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_dot_pap, 4, sizeof(cl_mem), &part_k_loop_dot_pap_d15);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_dot_pap, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_pap");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        h_loop_dot_pap_s = 0.0;
        err = clEnqueueReadBuffer(queues[0], part_k_loop_dot_pap_d0, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d0, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d0[g];
        err = clEnqueueReadBuffer(queues[1], part_k_loop_dot_pap_d1, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d1, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d1[g];
        err = clEnqueueReadBuffer(queues[2], part_k_loop_dot_pap_d2, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d2, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d2[g];
        err = clEnqueueReadBuffer(queues[3], part_k_loop_dot_pap_d3, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d3, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d3[g];
        err = clEnqueueReadBuffer(queues[4], part_k_loop_dot_pap_d4, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d4, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d4[g];
        err = clEnqueueReadBuffer(queues[5], part_k_loop_dot_pap_d5, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d5, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d5[g];
        err = clEnqueueReadBuffer(queues[6], part_k_loop_dot_pap_d6, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d6, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d6[g];
        err = clEnqueueReadBuffer(queues[7], part_k_loop_dot_pap_d7, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d7, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d7[g];
        err = clEnqueueReadBuffer(queues[8], part_k_loop_dot_pap_d8, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d8, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d8[g];
        err = clEnqueueReadBuffer(queues[9], part_k_loop_dot_pap_d9, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d9, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d9[g];
        err = clEnqueueReadBuffer(queues[10], part_k_loop_dot_pap_d10, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d10, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d10[g];
        err = clEnqueueReadBuffer(queues[11], part_k_loop_dot_pap_d11, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d11, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d11[g];
        err = clEnqueueReadBuffer(queues[12], part_k_loop_dot_pap_d12, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d12, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d12[g];
        err = clEnqueueReadBuffer(queues[13], part_k_loop_dot_pap_d13, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d13, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d13[g];
        err = clEnqueueReadBuffer(queues[14], part_k_loop_dot_pap_d14, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d14, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d14[g];
        err = clEnqueueReadBuffer(queues[15], part_k_loop_dot_pap_d15, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_pap_d15, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_pap");
        for (int g = 0; g < 1037; ++g) h_loop_dot_pap_s += ph_k_loop_dot_pap_d15[g];
        h_loop_alpha_q = h_loop_dot_rr_s / h_loop_dot_pap_s;
        h_loop_neg_alpha_z = -h_loop_alpha_q;
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_x, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_x, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_x, 2, sizeof(cl_mem), &buf_x);
            clSetKernelArg(k_loop_axpy_x, 3, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_x, 4, sizeof(double), &h_loop_alpha_q);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_axpy_x, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_x");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_r, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_r, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_r, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_axpy_r, 3, sizeof(cl_mem), &buf_loop_spmv_y);
            clSetKernelArg(k_loop_axpy_r, 4, sizeof(double), &h_loop_neg_alpha_z);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_axpy_r, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_r");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d0);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d1);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d2);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d3);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d4);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d5);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d6);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d7);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d8);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d9);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d10);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d11);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d12);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d13);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d14);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_dot_rrn, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_dot_rrn, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_dot_rrn, 2, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 3, sizeof(cl_mem), &buf_init_r_dst);
            clSetKernelArg(k_loop_dot_rrn, 4, sizeof(cl_mem), &part_k_loop_dot_rrn_d15);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_dot_rrn, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_dot_rrn");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        h_loop_dot_rrn_s = 0.0;
        err = clEnqueueReadBuffer(queues[0], part_k_loop_dot_rrn_d0, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d0, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d0[g];
        err = clEnqueueReadBuffer(queues[1], part_k_loop_dot_rrn_d1, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d1, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d1[g];
        err = clEnqueueReadBuffer(queues[2], part_k_loop_dot_rrn_d2, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d2, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d2[g];
        err = clEnqueueReadBuffer(queues[3], part_k_loop_dot_rrn_d3, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d3, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d3[g];
        err = clEnqueueReadBuffer(queues[4], part_k_loop_dot_rrn_d4, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d4, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d4[g];
        err = clEnqueueReadBuffer(queues[5], part_k_loop_dot_rrn_d5, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d5, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d5[g];
        err = clEnqueueReadBuffer(queues[6], part_k_loop_dot_rrn_d6, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d6, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d6[g];
        err = clEnqueueReadBuffer(queues[7], part_k_loop_dot_rrn_d7, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d7, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d7[g];
        err = clEnqueueReadBuffer(queues[8], part_k_loop_dot_rrn_d8, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d8, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d8[g];
        err = clEnqueueReadBuffer(queues[9], part_k_loop_dot_rrn_d9, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d9, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d9[g];
        err = clEnqueueReadBuffer(queues[10], part_k_loop_dot_rrn_d10, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d10, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d10[g];
        err = clEnqueueReadBuffer(queues[11], part_k_loop_dot_rrn_d11, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d11, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d11[g];
        err = clEnqueueReadBuffer(queues[12], part_k_loop_dot_rrn_d12, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d12, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d12[g];
        err = clEnqueueReadBuffer(queues[13], part_k_loop_dot_rrn_d13, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d13, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d13[g];
        err = clEnqueueReadBuffer(queues[14], part_k_loop_dot_rrn_d14, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d14, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d14[g];
        err = clEnqueueReadBuffer(queues[15], part_k_loop_dot_rrn_d15, CL_TRUE, 0, 1037 * sizeof(double), ph_k_loop_dot_rrn_d15, 0, NULL, NULL);
        CHECK(err, "read partials k_loop_dot_rrn");
        for (int g = 0; g < 1037; ++g) h_loop_dot_rrn_s += ph_k_loop_dot_rrn_d15[g];
        h_loop_relres = sqrt(h_loop_dot_rrn_s) / sqrt(h_dot_bb_s);
        h_loop_beta_q = h_loop_dot_rrn_s / h_loop_dot_rr_s;
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_scale_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_scale_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_scale_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_scale_p, 3, sizeof(double), &h_loop_beta_q);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_scale_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_scale_p");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        {
            const cl_int first = 0;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[0], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 8291;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[1], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 16582;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[2], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 24873;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[3], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 33164;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[4], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 41455;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[5], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 49746;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[6], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 58037;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[7], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 66328;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[8], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 74619;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[9], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 82910;
            const cl_int count = 8291;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[10], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 91201;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[11], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 99491;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[12], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 107781;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[13], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 116071;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[14], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        {
            const cl_int first = 124361;
            const cl_int count = 8290;
            const size_t global_size = 8296;
            const size_t local_size = 8;
            clSetKernelArg(k_loop_axpy_p, 0, sizeof(cl_int), &first);
            clSetKernelArg(k_loop_axpy_p, 1, sizeof(cl_int), &count);
            clSetKernelArg(k_loop_axpy_p, 2, sizeof(cl_mem), &buf_init_p_dst);
            clSetKernelArg(k_loop_axpy_p, 3, sizeof(cl_mem), &buf_init_r_dst);
            err = clEnqueueNDRangeKernel(queues[15], k_loop_axpy_p, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
            CHECK(err, "enqueue k_loop_axpy_p");
        }
        clFinish(queues[0]);
        clFinish(queues[1]);
        clFinish(queues[2]);
        clFinish(queues[3]);
        clFinish(queues[4]);
        clFinish(queues[5]);
        clFinish(queues[6]);
        clFinish(queues[7]);
        clFinish(queues[8]);
        clFinish(queues[9]);
        clFinish(queues[10]);
        clFinish(queues[11]);
        clFinish(queues[12]);
        clFinish(queues[13]);
        clFinish(queues[14]);
        clFinish(queues[15]);
        ++iters;
        if (h_loop_relres <= 1e-10) { converged = 1; break; }
    }

    /* read back and store outputs */
    double* out_x = (double*)malloc(1061208);
    err = clEnqueueReadBuffer(queues[0], buf_x, CL_TRUE, 0, 1061208, out_x, 0, NULL, NULL);
    CHECK(err, "read x");
    store_doubles("cg_x_out.txt", out_x, 132651);
    printf("iters=%d relres=%.17g converged=%s\n", iters, h_loop_relres, converged ? "true" : "false");

    clReleaseMemObject(buf_rowptr);
    clReleaseMemObject(buf_colidx);
    clReleaseMemObject(buf_values);
    clReleaseMemObject(buf_b);
    clReleaseMemObject(buf_init_r_dst);
    clReleaseMemObject(buf_init_p_dst);
    clReleaseMemObject(buf_x);
    clReleaseMemObject(buf_loop_spmv_y);
    clReleaseMemObject(part_k_dot_bb_d0);
    free(ph_k_dot_bb_d0);
    clReleaseMemObject(part_k_dot_bb_d1);
    free(ph_k_dot_bb_d1);
    clReleaseMemObject(part_k_dot_bb_d2);
    free(ph_k_dot_bb_d2);
    clReleaseMemObject(part_k_dot_bb_d3);
    free(ph_k_dot_bb_d3);
    clReleaseMemObject(part_k_dot_bb_d4);
    free(ph_k_dot_bb_d4);
    clReleaseMemObject(part_k_dot_bb_d5);
    free(ph_k_dot_bb_d5);
    clReleaseMemObject(part_k_dot_bb_d6);
    free(ph_k_dot_bb_d6);
    clReleaseMemObject(part_k_dot_bb_d7);
    free(ph_k_dot_bb_d7);
    clReleaseMemObject(part_k_dot_bb_d8);
    free(ph_k_dot_bb_d8);
    clReleaseMemObject(part_k_dot_bb_d9);
    free(ph_k_dot_bb_d9);
    clReleaseMemObject(part_k_dot_bb_d10);
    free(ph_k_dot_bb_d10);
    clReleaseMemObject(part_k_dot_bb_d11);
    free(ph_k_dot_bb_d11);
    clReleaseMemObject(part_k_dot_bb_d12);
    free(ph_k_dot_bb_d12);
    clReleaseMemObject(part_k_dot_bb_d13);
    free(ph_k_dot_bb_d13);
    clReleaseMemObject(part_k_dot_bb_d14);
    free(ph_k_dot_bb_d14);
    clReleaseMemObject(part_k_dot_bb_d15);
    free(ph_k_dot_bb_d15);
    clReleaseMemObject(part_k_loop_dot_rr_d0);
    free(ph_k_loop_dot_rr_d0);
    clReleaseMemObject(part_k_loop_dot_rr_d1);
    free(ph_k_loop_dot_rr_d1);
    clReleaseMemObject(part_k_loop_dot_rr_d2);
    free(ph_k_loop_dot_rr_d2);
    clReleaseMemObject(part_k_loop_dot_rr_d3);
    free(ph_k_loop_dot_rr_d3);
    clReleaseMemObject(part_k_loop_dot_rr_d4);
    free(ph_k_loop_dot_rr_d4);
    clReleaseMemObject(part_k_loop_dot_rr_d5);
    free(ph_k_loop_dot_rr_d5);
    clReleaseMemObject(part_k_loop_dot_rr_d6);
    free(ph_k_loop_dot_rr_d6);
    clReleaseMemObject(part_k_loop_dot_rr_d7);
    free(ph_k_loop_dot_rr_d7);
    clReleaseMemObject(part_k_loop_dot_rr_d8);
    free(ph_k_loop_dot_rr_d8);
    clReleaseMemObject(part_k_loop_dot_rr_d9);
    free(ph_k_loop_dot_rr_d9);
    clReleaseMemObject(part_k_loop_dot_rr_d10);
    free(ph_k_loop_dot_rr_d10);
    clReleaseMemObject(part_k_loop_dot_rr_d11);
    free(ph_k_loop_dot_rr_d11);
    clReleaseMemObject(part_k_loop_dot_rr_d12);
    free(ph_k_loop_dot_rr_d12);
    clReleaseMemObject(part_k_loop_dot_rr_d13);
    free(ph_k_loop_dot_rr_d13);
    clReleaseMemObject(part_k_loop_dot_rr_d14);
    free(ph_k_loop_dot_rr_d14);
    clReleaseMemObject(part_k_loop_dot_rr_d15);
    free(ph_k_loop_dot_rr_d15);
    clReleaseMemObject(part_k_loop_dot_pap_d0);
    free(ph_k_loop_dot_pap_d0);
    clReleaseMemObject(part_k_loop_dot_pap_d1);
    free(ph_k_loop_dot_pap_d1);
    clReleaseMemObject(part_k_loop_dot_pap_d2);
    free(ph_k_loop_dot_pap_d2);
    clReleaseMemObject(part_k_loop_dot_pap_d3);
    free(ph_k_loop_dot_pap_d3);
    clReleaseMemObject(part_k_loop_dot_pap_d4);
    free(ph_k_loop_dot_pap_d4);
    clReleaseMemObject(part_k_loop_dot_pap_d5);
    free(ph_k_loop_dot_pap_d5);
    clReleaseMemObject(part_k_loop_dot_pap_d6);
    free(ph_k_loop_dot_pap_d6);
    clReleaseMemObject(part_k_loop_dot_pap_d7);
    free(ph_k_loop_dot_pap_d7);
    clReleaseMemObject(part_k_loop_dot_pap_d8);
    free(ph_k_loop_dot_pap_d8);
    clReleaseMemObject(part_k_loop_dot_pap_d9);
    free(ph_k_loop_dot_pap_d9);
    clReleaseMemObject(part_k_loop_dot_pap_d10);
    free(ph_k_loop_dot_pap_d10);
    clReleaseMemObject(part_k_loop_dot_pap_d11);
    free(ph_k_loop_dot_pap_d11);
    clReleaseMemObject(part_k_loop_dot_pap_d12);
    free(ph_k_loop_dot_pap_d12);
    clReleaseMemObject(part_k_loop_dot_pap_d13);
    free(ph_k_loop_dot_pap_d13);
    clReleaseMemObject(part_k_loop_dot_pap_d14);
    free(ph_k_loop_dot_pap_d14);
    clReleaseMemObject(part_k_loop_dot_pap_d15);
    free(ph_k_loop_dot_pap_d15);
    clReleaseMemObject(part_k_loop_dot_rrn_d0);
    free(ph_k_loop_dot_rrn_d0);
    clReleaseMemObject(part_k_loop_dot_rrn_d1);
    free(ph_k_loop_dot_rrn_d1);
    clReleaseMemObject(part_k_loop_dot_rrn_d2);
    free(ph_k_loop_dot_rrn_d2);
    clReleaseMemObject(part_k_loop_dot_rrn_d3);
    free(ph_k_loop_dot_rrn_d3);
    clReleaseMemObject(part_k_loop_dot_rrn_d4);
    free(ph_k_loop_dot_rrn_d4);
    clReleaseMemObject(part_k_loop_dot_rrn_d5);
    free(ph_k_loop_dot_rrn_d5);
    clReleaseMemObject(part_k_loop_dot_rrn_d6);
    free(ph_k_loop_dot_rrn_d6);
    clReleaseMemObject(part_k_loop_dot_rrn_d7);
    free(ph_k_loop_dot_rrn_d7);
    clReleaseMemObject(part_k_loop_dot_rrn_d8);
    free(ph_k_loop_dot_rrn_d8);
    clReleaseMemObject(part_k_loop_dot_rrn_d9);
    free(ph_k_loop_dot_rrn_d9);
    clReleaseMemObject(part_k_loop_dot_rrn_d10);
    free(ph_k_loop_dot_rrn_d10);
    clReleaseMemObject(part_k_loop_dot_rrn_d11);
    free(ph_k_loop_dot_rrn_d11);
    clReleaseMemObject(part_k_loop_dot_rrn_d12);
    free(ph_k_loop_dot_rrn_d12);
    clReleaseMemObject(part_k_loop_dot_rrn_d13);
    free(ph_k_loop_dot_rrn_d13);
    clReleaseMemObject(part_k_loop_dot_rrn_d14);
    free(ph_k_loop_dot_rrn_d14);
    clReleaseMemObject(part_k_loop_dot_rrn_d15);
    free(ph_k_loop_dot_rrn_d15);
    clReleaseKernel(k_init_r);
    clReleaseKernel(k_init_p);
    clReleaseKernel(k_dot_bb);
    clReleaseKernel(k_loop_dot_rr);
    clReleaseKernel(k_loop_spmv);
    clReleaseKernel(k_loop_dot_pap);
    clReleaseKernel(k_loop_axpy_x);
    clReleaseKernel(k_loop_axpy_r);
    clReleaseKernel(k_loop_dot_rrn);
    clReleaseKernel(k_loop_scale_p);
    clReleaseKernel(k_loop_axpy_p);
    clReleaseProgram(program);
    free(source);
    for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);
    clReleaseContext(context);
    return converged ? 0 : 3;
}
