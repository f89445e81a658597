/*
 * OpenCL host program for model 'intrinsics' on 2 device(s).
 * generated by gmodelc; model digest sha256:b1eb97b10d2e
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

static void load_floats(const char* path, float* out, long count)
{
    FILE* f = fopen(path, "r");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    for (long i = 0; i < count; ++i) {
        if (fscanf(f, "%f", &out[i]) != 1) { fclose(f); exit(2); }
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

static void store_floats(const char* path, const float* data, long count)
{
    FILE* f = fopen(path, "w");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    for (long i = 0; i < count; ++i) fprintf(f, "%.9g\n", data[i]);
    fclose(f);
}

int main(void)
{
    enum { DEVICE_COUNT = 2 };
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
    char* source = read_text_file("intrinsics_kernels.cl", &source_size);
    cl_program program = clCreateProgramWithSource(context, 1, (const char**)&source, &source_size, &err);
    CHECK(err, "clCreateProgramWithSource");
    err = clBuildProgram(program, DEVICE_COUNT, devices, NULL, NULL, NULL);
    CHECK(err, "clBuildProgram");

    cl_kernel k_spmv = clCreateKernel(program, "k_spmv", &err);
    CHECK(err, "clCreateKernel k_spmv");
    cl_kernel k_dot_bb = clCreateKernel(program, "k_dot_bb", &err);
    CHECK(err, "clCreateKernel k_dot_bb");
    cl_kernel k_dot_by = clCreateKernel(program, "k_dot_by", &err);
    CHECK(err, "clCreateKernel k_dot_by");
    cl_kernel k_init = clCreateKernel(program, "k_init", &err);
    CHECK(err, "clCreateKernel k_init");
    cl_kernel k_update = clCreateKernel(program, "k_update", &err);
    CHECK(err, "clCreateKernel k_update");
    cl_kernel k_damp = clCreateKernel(program, "k_damp", &err);
    CHECK(err, "clCreateKernel k_damp");
    cl_kernel k_bump = clCreateKernel(program, "k_bump", &err);
    CHECK(err, "clCreateKernel k_bump");
    cl_kernel k_diff = clCreateKernel(program, "k_diff", &err);
    CHECK(err, "clCreateKernel k_diff");

    /* host-resident scalars */
    double h_dot_bb_s = 0.0;
    double h_dot_by_s = 0.0;
    double h_ratio_q = 0.0;
    double h_minus_z = 0.0;
    double h_relres = 0.0;

    /* one buffer per device-side data allocation */
    cl_mem buf_rowptr = clCreateBuffer(context, CL_MEM_READ_WRITE, 68, NULL, &err);
    CHECK(err, "clCreateBuffer rowptr");
    cl_mem buf_colidx = clCreateBuffer(context, CL_MEM_READ_WRITE, 256, NULL, &err);
    CHECK(err, "clCreateBuffer colidx");
    cl_mem buf_b = clCreateBuffer(context, CL_MEM_READ_WRITE, 128, NULL, &err);
    CHECK(err, "clCreateBuffer b");
    cl_mem buf_f = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, NULL, &err);
    CHECK(err, "clCreateBuffer f");
    cl_mem buf_g = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, NULL, &err);
    CHECK(err, "clCreateBuffer g");
    cl_mem buf_spmv_y = clCreateBuffer(context, CL_MEM_READ_WRITE, 128, NULL, &err);
    CHECK(err, "clCreateBuffer spmv_y");
    cl_mem buf_init_dst = clCreateBuffer(context, CL_MEM_READ_WRITE, 128, NULL, &err);
    CHECK(err, "clCreateBuffer init_dst");
    cl_mem buf_diff_z = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, NULL, &err);
    CHECK(err, "clCreateBuffer diff_z");
    cl_mem buf_values = clCreateBuffer(context, CL_MEM_READ_WRITE, 512, NULL, &err);
    CHECK(err, "clCreateBuffer values");

    /* work-group partial buffers for dot reductions */
    cl_mem part_k_dot_bb_d0 = clCreateBuffer(context, CL_MEM_READ_WRITE, 2 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d0 = (double*)malloc(2 * sizeof(double));
    cl_mem part_k_dot_bb_d1 = clCreateBuffer(context, CL_MEM_READ_WRITE, 2 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_bb_d1 = (double*)malloc(2 * sizeof(double));
    cl_mem part_k_dot_by_d0 = clCreateBuffer(context, CL_MEM_READ_WRITE, 2 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_by_d0 = (double*)malloc(2 * sizeof(double));
    cl_mem part_k_dot_by_d1 = clCreateBuffer(context, CL_MEM_READ_WRITE, 2 * sizeof(double), NULL, &err);
    CHECK(err, "clCreateBuffer partials");
    double* ph_k_dot_by_d1 = (double*)malloc(2 * sizeof(double));

    /* load and upload input data */
    int* in_rowptr = (int*)malloc(68);
    load_ints("intrinsics_rowptr.txt", in_rowptr, 17);
    err = clEnqueueWriteBuffer(queues[0], buf_rowptr, CL_TRUE, 0, 68, in_rowptr, 0, NULL, NULL);
    CHECK(err, "write rowptr");
    int* in_colidx = (int*)malloc(256);
    load_ints("intrinsics_colidx.txt", in_colidx, 64);
    err = clEnqueueWriteBuffer(queues[0], buf_colidx, CL_TRUE, 0, 256, in_colidx, 0, NULL, NULL);
    CHECK(err, "write colidx");
    double* in_values = (double*)malloc(512);
    load_doubles("intrinsics_values.txt", in_values, 64);
    err = clEnqueueWriteBuffer(queues[0], buf_values, CL_TRUE, 0, 512, in_values, 0, NULL, NULL);
    CHECK(err, "write values");
    double* in_b = (double*)malloc(128);
    load_doubles("intrinsics_b.txt", in_b, 16);
    err = clEnqueueWriteBuffer(queues[0], buf_b, CL_TRUE, 0, 128, in_b, 0, NULL, NULL);
    CHECK(err, "write b");
    float* in_f = (float*)malloc(64);
    load_floats("intrinsics_f.txt", in_f, 16);
    err = clEnqueueWriteBuffer(queues[0], buf_f, CL_TRUE, 0, 64, in_f, 0, NULL, NULL);
    CHECK(err, "write f");
    float* in_g = (float*)malloc(64);
    load_floats("intrinsics_g.txt", in_g, 16);
    err = clEnqueueWriteBuffer(queues[0], buf_g, CL_TRUE, 0, 64, in_g, 0, NULL, NULL);
    CHECK(err, "write g");

    int iters = 0;
    int converged = 1;

    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_spmv, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_spmv, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_spmv, 2, sizeof(cl_mem), &buf_rowptr);
        clSetKernelArg(k_spmv, 3, sizeof(cl_mem), &buf_colidx);
        clSetKernelArg(k_spmv, 4, sizeof(cl_mem), &buf_values);
        clSetKernelArg(k_spmv, 5, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_spmv, 6, sizeof(cl_mem), &buf_spmv_y);
        err = clEnqueueNDRangeKernel(queues[0], k_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_spmv");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_spmv, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_spmv, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_spmv, 2, sizeof(cl_mem), &buf_rowptr);
        clSetKernelArg(k_spmv, 3, sizeof(cl_mem), &buf_colidx);
        clSetKernelArg(k_spmv, 4, sizeof(cl_mem), &buf_values);
        clSetKernelArg(k_spmv, 5, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_spmv, 6, sizeof(cl_mem), &buf_spmv_y);
        err = clEnqueueNDRangeKernel(queues[1], k_spmv, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_spmv");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d0);
        err = clEnqueueNDRangeKernel(queues[0], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_dot_bb, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_bb, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_bb, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 3, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_bb, 4, sizeof(cl_mem), &part_k_dot_bb_d1);
        err = clEnqueueNDRangeKernel(queues[1], k_dot_bb, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_bb");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    h_dot_bb_s = 0.0;
    err = clEnqueueReadBuffer(queues[0], part_k_dot_bb_d0, CL_TRUE, 0, 2 * sizeof(double), ph_k_dot_bb_d0, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 2; ++g) h_dot_bb_s += ph_k_dot_bb_d0[g];
    err = clEnqueueReadBuffer(queues[1], part_k_dot_bb_d1, CL_TRUE, 0, 2 * sizeof(double), ph_k_dot_bb_d1, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_bb");
    for (int g = 0; g < 2; ++g) h_dot_bb_s += ph_k_dot_bb_d1[g];
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_dot_by, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_by, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_by, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_by, 3, sizeof(cl_mem), &buf_spmv_y);
        clSetKernelArg(k_dot_by, 4, sizeof(cl_mem), &part_k_dot_by_d0);
        err = clEnqueueNDRangeKernel(queues[0], k_dot_by, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_by");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_dot_by, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_dot_by, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_dot_by, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_dot_by, 3, sizeof(cl_mem), &buf_spmv_y);
        clSetKernelArg(k_dot_by, 4, sizeof(cl_mem), &part_k_dot_by_d1);
        err = clEnqueueNDRangeKernel(queues[1], k_dot_by, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_dot_by");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    h_dot_by_s = 0.0;
    err = clEnqueueReadBuffer(queues[0], part_k_dot_by_d0, CL_TRUE, 0, 2 * sizeof(double), ph_k_dot_by_d0, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_by");
    for (int g = 0; g < 2; ++g) h_dot_by_s += ph_k_dot_by_d0[g];
    err = clEnqueueReadBuffer(queues[1], part_k_dot_by_d1, CL_TRUE, 0, 2 * sizeof(double), ph_k_dot_by_d1, 0, NULL, NULL);
    CHECK(err, "read partials k_dot_by");
    for (int g = 0; g < 2; ++g) h_dot_by_s += ph_k_dot_by_d1[g];
    h_ratio_q = h_dot_by_s / h_dot_bb_s;
    h_minus_z = -h_ratio_q;
    h_relres = sqrt(h_dot_by_s) / sqrt(h_dot_bb_s);
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_init, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init, 3, sizeof(cl_mem), &buf_init_dst);
        err = clEnqueueNDRangeKernel(queues[0], k_init, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_init, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_init, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_init, 2, sizeof(cl_mem), &buf_b);
        clSetKernelArg(k_init, 3, sizeof(cl_mem), &buf_init_dst);
        err = clEnqueueNDRangeKernel(queues[1], k_init, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_init");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_update, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_update, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_update, 2, sizeof(cl_mem), &buf_init_dst);
        clSetKernelArg(k_update, 3, sizeof(cl_mem), &buf_spmv_y);
        clSetKernelArg(k_update, 4, sizeof(double), &h_minus_z);
        err = clEnqueueNDRangeKernel(queues[0], k_update, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_update");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_update, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_update, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_update, 2, sizeof(cl_mem), &buf_init_dst);
        clSetKernelArg(k_update, 3, sizeof(cl_mem), &buf_spmv_y);
        clSetKernelArg(k_update, 4, sizeof(double), &h_minus_z);
        err = clEnqueueNDRangeKernel(queues[1], k_update, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_update");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_damp, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_damp, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_damp, 2, sizeof(cl_mem), &buf_init_dst);
        clSetKernelArg(k_damp, 3, sizeof(double), &h_ratio_q);
        err = clEnqueueNDRangeKernel(queues[0], k_damp, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_damp");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_damp, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_damp, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_damp, 2, sizeof(cl_mem), &buf_init_dst);
        clSetKernelArg(k_damp, 3, sizeof(double), &h_ratio_q);
        err = clEnqueueNDRangeKernel(queues[1], k_damp, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_damp");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_bump, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_bump, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_bump, 2, sizeof(cl_mem), &buf_init_dst);
        clSetKernelArg(k_bump, 3, sizeof(cl_mem), &buf_b);
        err = clEnqueueNDRangeKernel(queues[0], k_bump, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_bump");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_bump, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_bump, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_bump, 2, sizeof(cl_mem), &buf_init_dst);
        clSetKernelArg(k_bump, 3, sizeof(cl_mem), &buf_b);
        err = clEnqueueNDRangeKernel(queues[1], k_bump, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_bump");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);
    {
        const cl_int first = 0;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_diff, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_diff, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_diff, 2, sizeof(cl_mem), &buf_f);
        clSetKernelArg(k_diff, 3, sizeof(cl_mem), &buf_g);
        clSetKernelArg(k_diff, 4, sizeof(cl_mem), &buf_diff_z);
        err = clEnqueueNDRangeKernel(queues[0], k_diff, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_diff");
    }
    {
        const cl_int first = 8;
        const cl_int count = 8;
        const size_t global_size = 8;
        const size_t local_size = 4;
        clSetKernelArg(k_diff, 0, sizeof(cl_int), &first);
        clSetKernelArg(k_diff, 1, sizeof(cl_int), &count);
        clSetKernelArg(k_diff, 2, sizeof(cl_mem), &buf_f);
        clSetKernelArg(k_diff, 3, sizeof(cl_mem), &buf_g);
        clSetKernelArg(k_diff, 4, sizeof(cl_mem), &buf_diff_z);
        err = clEnqueueNDRangeKernel(queues[1], k_diff, 1, NULL, &global_size, &local_size, 0, NULL, NULL);
        CHECK(err, "enqueue k_diff");
    }
    clFinish(queues[0]);
    clFinish(queues[1]);

    /* read back and store outputs */
    double* out_init_dst = (double*)malloc(128);
    err = clEnqueueReadBuffer(queues[0], buf_init_dst, CL_TRUE, 0, 128, out_init_dst, 0, NULL, NULL);
    CHECK(err, "read init_dst");
    store_doubles("intrinsics_x_out.txt", out_init_dst, 16);
    float* out_diff_z = (float*)malloc(64);
    err = clEnqueueReadBuffer(queues[0], buf_diff_z, CL_TRUE, 0, 64, out_diff_z, 0, NULL, NULL);
    CHECK(err, "read diff_z");
    store_floats("intrinsics_h_out.txt", out_diff_z, 16);
    store_doubles("intrinsics_relres_out.txt", &h_relres, 1);
    printf("iters=%d relres=%.17g converged=%s\n", iters, 0.0, converged ? "true" : "false");

    clReleaseMemObject(buf_rowptr);
    clReleaseMemObject(buf_colidx);
    clReleaseMemObject(buf_b);
    clReleaseMemObject(buf_f);
    clReleaseMemObject(buf_g);
    clReleaseMemObject(buf_spmv_y);
    clReleaseMemObject(buf_init_dst);
    clReleaseMemObject(buf_diff_z);
    clReleaseMemObject(buf_values);
    clReleaseMemObject(part_k_dot_bb_d0);
    free(ph_k_dot_bb_d0);
    clReleaseMemObject(part_k_dot_bb_d1);
    free(ph_k_dot_bb_d1);
    clReleaseMemObject(part_k_dot_by_d0);
    free(ph_k_dot_by_d0);
    clReleaseMemObject(part_k_dot_by_d1);
    free(ph_k_dot_by_d1);
    clReleaseKernel(k_spmv);
    clReleaseKernel(k_dot_bb);
    clReleaseKernel(k_dot_by);
    clReleaseKernel(k_init);
    clReleaseKernel(k_update);
    clReleaseKernel(k_damp);
    clReleaseKernel(k_bump);
    clReleaseKernel(k_diff);
    clReleaseProgram(program);
    free(source);
    for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);
    clReleaseContext(context);
    return converged ? 0 : 3;
}
