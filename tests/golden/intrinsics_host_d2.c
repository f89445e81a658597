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

enum { DEVICE_COUNT = 2 };
static cl_command_queue queues[DEVICE_COUNT];

/* the kernels of intrinsics_kernels.cl */
enum {
    k_spmv_csr_i32_f64,
    k_dot_partial_f64,
    k_copy_f64,
    k_axpy_f64,
    k_scale_f64,
    k_axpy_f64_2,
    k_sub_f32,
    KERNEL_COUNT
};
static const char* const kernel_names[KERNEL_COUNT] = {
    "k_spmv_csr_i32_f64",
    "k_dot_partial_f64",
    "k_copy_f64",
    "k_axpy_f64",
    "k_scale_f64",
    "k_axpy_f64_2",
    "k_sub_f32",
};
static cl_kernel kernels[KERNEL_COUNT];

/* a kernel argument after first and count, as clSetKernelArg takes it */
typedef struct { size_t size; const void* value; } arg_t;

/* one launch: a row of its device step's table */
typedef struct {
    int kernel;
    int queue;
    cl_int first, count;
    size_t global_size, local_size;
    const arg_t* args;          /* ends at the first of size 0 */
    const cl_mem* partials;     /* a reduction's partials buffer, or NULL */
} launch_t;

/* Set each row's arguments and enqueue it, then wait for every row's
 * queue.  Kernel arguments are captured at enqueue (OpenCL 1.1, 5.7.2),
 * so one cl_kernel serves all the rows of its kernel. */
static void run_step(const launch_t* rows, int count)
{
    for (int r = 0; r < count; ++r) {
        const launch_t* row = &rows[r];
        cl_kernel kernel = kernels[row->kernel];
        cl_uint index = 0;
        cl_int err = clSetKernelArg(kernel, index++, sizeof(cl_int), &row->first);
        if (err == CL_SUCCESS) err = clSetKernelArg(kernel, index++, sizeof(cl_int), &row->count);
        for (const arg_t* arg = row->args; err == CL_SUCCESS && arg->size; ++arg)
            err = clSetKernelArg(kernel, index++, arg->size, arg->value);
        if (err == CL_SUCCESS && row->partials)
            err = clSetKernelArg(kernel, index, sizeof(cl_mem), row->partials);
        CHECK(err, "clSetKernelArg");
        err = clEnqueueNDRangeKernel(queues[row->queue], kernel, 1, NULL, &row->global_size,
                                     &row->local_size, 0, NULL, NULL);
        CHECK(err, kernel_names[row->kernel]);
    }
    for (int r = 0; r < count; ++r) clFinish(queues[rows[r].queue]);
}

/* host-resident scalars */
static double h_dot_bb_s;
static double h_dot_by_s;
static double h_ratio_q;
static double h_minus_z;
static double h_relres;

/* one buffer per device-side data allocation */
static cl_mem buf_rowptr;
static cl_mem buf_colidx;
static cl_mem buf_b;
static cl_mem buf_f;
static cl_mem buf_g;
static cl_mem buf_spmv_y;
static cl_mem buf_init_dst;
static cl_mem buf_diff_z;
static cl_mem buf_values;

/* work-group partials: one buffer per device, reused by every reduction */
static cl_mem partials[DEVICE_COUNT];

/* a reduction step's result: its partials summed row by row, from 0 */
static double sum_doubles(const launch_t* rows, int count)
{
    static double staged[2];
    double sum = 0;
    for (int r = 0; r < count; ++r) {
        size_t groups = rows[r].global_size / rows[r].local_size;
        cl_int err = clEnqueueReadBuffer(queues[rows[r].queue], *rows[r].partials, CL_TRUE, 0,
                                         groups * sizeof(double), staged, 0, NULL, NULL);
        CHECK(err, "read partials");
        for (size_t g = 0; g < groups; ++g) sum += staged[g];
    }
    return sum;
}

/* step 0: spmv */
static const arg_t args_0[] = {
    {sizeof(cl_mem), &buf_rowptr},
    {sizeof(cl_mem), &buf_colidx},
    {sizeof(cl_mem), &buf_values},
    {sizeof(cl_mem), &buf_b},
    {sizeof(cl_mem), &buf_spmv_y},
    {0, NULL}
};
static const launch_t step_0[] = {
    {k_spmv_csr_i32_f64, 0, 0, 8, 8, 4, args_0, NULL},
    {k_spmv_csr_i32_f64, 1, 8, 8, 8, 4, args_0, NULL},
};

/* step 1: dot_bb */
static const arg_t args_1[] = {
    {sizeof(cl_mem), &buf_b},
    {sizeof(cl_mem), &buf_b},
    {0, NULL}
};
static const launch_t step_1[] = {
    {k_dot_partial_f64, 0, 0, 8, 8, 4, args_1, &partials[0]},
    {k_dot_partial_f64, 1, 8, 8, 8, 4, args_1, &partials[1]},
};

/* step 2: dot_by */
static const arg_t args_2[] = {
    {sizeof(cl_mem), &buf_b},
    {sizeof(cl_mem), &buf_spmv_y},
    {0, NULL}
};
static const launch_t step_2[] = {
    {k_dot_partial_f64, 0, 0, 8, 8, 4, args_2, &partials[0]},
    {k_dot_partial_f64, 1, 8, 8, 8, 4, args_2, &partials[1]},
};

/* step 3: init */
static const arg_t args_3[] = {
    {sizeof(cl_mem), &buf_b},
    {sizeof(cl_mem), &buf_init_dst},
    {0, NULL}
};
static const launch_t step_3[] = {
    {k_copy_f64, 0, 0, 8, 8, 4, args_3, NULL},
    {k_copy_f64, 1, 8, 8, 8, 4, args_3, NULL},
};

/* step 4: update */
static const arg_t args_4[] = {
    {sizeof(cl_mem), &buf_init_dst},
    {sizeof(cl_mem), &buf_spmv_y},
    {sizeof(double), &h_minus_z},
    {0, NULL}
};
static const launch_t step_4[] = {
    {k_axpy_f64, 0, 0, 8, 8, 4, args_4, NULL},
    {k_axpy_f64, 1, 8, 8, 8, 4, args_4, NULL},
};

/* step 5: damp */
static const arg_t args_5[] = {
    {sizeof(cl_mem), &buf_init_dst},
    {sizeof(double), &h_ratio_q},
    {0, NULL}
};
static const launch_t step_5[] = {
    {k_scale_f64, 0, 0, 8, 8, 4, args_5, NULL},
    {k_scale_f64, 1, 8, 8, 8, 4, args_5, NULL},
};

/* step 6: bump */
static const arg_t args_6[] = {
    {sizeof(cl_mem), &buf_init_dst},
    {sizeof(cl_mem), &buf_b},
    {0, NULL}
};
static const launch_t step_6[] = {
    {k_axpy_f64_2, 0, 0, 8, 8, 4, args_6, NULL},
    {k_axpy_f64_2, 1, 8, 8, 8, 4, args_6, NULL},
};

/* step 7: diff */
static const arg_t args_7[] = {
    {sizeof(cl_mem), &buf_f},
    {sizeof(cl_mem), &buf_g},
    {sizeof(cl_mem), &buf_diff_z},
    {0, NULL}
};
static const launch_t step_7[] = {
    {k_sub_f32, 0, 0, 8, 8, 4, args_7, NULL},
    {k_sub_f32, 1, 8, 8, 8, 4, args_7, NULL},
};

int main(void)
{
    cl_int err;
    cl_platform_id cl_platform;
    err = clGetPlatformIDs(1, &cl_platform, NULL);
    CHECK(err, "clGetPlatformIDs");
    cl_device_id devices[DEVICE_COUNT];
    err = clGetDeviceIDs(cl_platform, CL_DEVICE_TYPE_ALL, DEVICE_COUNT, devices, NULL);
    CHECK(err, "clGetDeviceIDs");
    cl_context context = clCreateContext(NULL, DEVICE_COUNT, devices, NULL, NULL, &err);
    CHECK(err, "clCreateContext");
    for (int d = 0; d < DEVICE_COUNT; ++d) {
        queues[d] = clCreateCommandQueue(context, devices[d], 0, &err);
        CHECK(err, "clCreateCommandQueue");
    }

    size_t source_size;
    char* source = read_text_file("intrinsics_kernels.cl", &source_size);
    cl_program program = clCreateProgramWithSource(context, 1, (const char**)&source,
                                                   &source_size, &err);
    CHECK(err, "clCreateProgramWithSource");
    err = clBuildProgram(program, DEVICE_COUNT, devices, NULL, NULL, NULL);
    CHECK(err, "clBuildProgram");
    for (int k = 0; k < KERNEL_COUNT; ++k) {
        kernels[k] = clCreateKernel(program, kernel_names[k], &err);
        CHECK(err, kernel_names[k]);
    }

    buf_rowptr = clCreateBuffer(context, CL_MEM_READ_WRITE, 68, NULL, &err);
    CHECK(err, "clCreateBuffer rowptr");
    buf_colidx = clCreateBuffer(context, CL_MEM_READ_WRITE, 256, NULL, &err);
    CHECK(err, "clCreateBuffer colidx");
    buf_b = clCreateBuffer(context, CL_MEM_READ_WRITE, 128, NULL, &err);
    CHECK(err, "clCreateBuffer b");
    buf_f = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, NULL, &err);
    CHECK(err, "clCreateBuffer f");
    buf_g = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, NULL, &err);
    CHECK(err, "clCreateBuffer g");
    buf_spmv_y = clCreateBuffer(context, CL_MEM_READ_WRITE, 128, NULL, &err);
    CHECK(err, "clCreateBuffer spmv_y");
    buf_init_dst = clCreateBuffer(context, CL_MEM_READ_WRITE, 128, NULL, &err);
    CHECK(err, "clCreateBuffer init_dst");
    buf_diff_z = clCreateBuffer(context, CL_MEM_READ_WRITE, 64, NULL, &err);
    CHECK(err, "clCreateBuffer diff_z");
    buf_values = clCreateBuffer(context, CL_MEM_READ_WRITE, 512, NULL, &err);
    CHECK(err, "clCreateBuffer values");
    for (int d = 0; d < DEVICE_COUNT; ++d) {
        partials[d] = clCreateBuffer(context, CL_MEM_READ_WRITE, 16, NULL, &err);
        CHECK(err, "clCreateBuffer partials");
    }

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

    run_step(step_0, 2);
    run_step(step_1, 2);
    h_dot_bb_s = sum_doubles(step_1, 2);
    run_step(step_2, 2);
    h_dot_by_s = sum_doubles(step_2, 2);
    h_ratio_q = h_dot_by_s / h_dot_bb_s;
    h_minus_z = -h_ratio_q;
    h_relres = sqrt(h_dot_by_s) / sqrt(h_dot_bb_s);
    run_step(step_3, 2);
    run_step(step_4, 2);
    run_step(step_5, 2);
    run_step(step_6, 2);
    run_step(step_7, 2);

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
    for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseMemObject(partials[d]);
    for (int k = 0; k < KERNEL_COUNT; ++k) clReleaseKernel(kernels[k]);
    clReleaseProgram(program);
    free(source);
    for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);
    clReleaseContext(context);
    return converged ? 0 : 3;
}
