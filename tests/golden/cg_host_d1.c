/*
 * OpenCL host program for model 'cg' on 1 device(s).
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

enum { DEVICE_COUNT = 1 };
static cl_command_queue queues[DEVICE_COUNT];

/* the kernels of cg_kernels.cl */
enum {
    k_copy_f64,
    k_dot_partial_f64,
    k_spmv_csr_i32_f64,
    k_axpy_f64,
    k_scale_f64,
    k_axpy_f64_2,
    KERNEL_COUNT
};
static const char* const kernel_names[KERNEL_COUNT] = {
    "k_copy_f64",
    "k_dot_partial_f64",
    "k_spmv_csr_i32_f64",
    "k_axpy_f64",
    "k_scale_f64",
    "k_axpy_f64_2",
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
static double h_loop_dot_rr_s;
static double h_loop_dot_pap_s;
static double h_loop_alpha_q;
static double h_loop_neg_alpha_z;
static double h_loop_dot_rrn_s;
static double h_loop_relres;
static double h_loop_beta_q;

/* one buffer per device-side data allocation */
static cl_mem buf_rowptr;
static cl_mem buf_colidx;
static cl_mem buf_values;
static cl_mem buf_b;
static cl_mem buf_init_r_dst;
static cl_mem buf_init_p_dst;
static cl_mem buf_x;
static cl_mem buf_loop_spmv_y;

/* work-group partials: one buffer per device, reused by every reduction */
static cl_mem partials[DEVICE_COUNT];

/* a reduction step's result: its partials summed row by row, from 0 */
static double sum_doubles(const launch_t* rows, int count)
{
    static double staged[16582];
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

/* step 0: init_r */
static const arg_t args_0[] = {
    {sizeof(cl_mem), &buf_b},
    {sizeof(cl_mem), &buf_init_r_dst},
    {0, NULL}
};
static const launch_t step_0[] = {
    {k_copy_f64, 0, 0, 132651, 132656, 8, args_0, NULL},
};

/* step 1: init_p */
static const arg_t args_1[] = {
    {sizeof(cl_mem), &buf_init_r_dst},
    {sizeof(cl_mem), &buf_init_p_dst},
    {0, NULL}
};
static const launch_t step_1[] = {
    {k_copy_f64, 0, 0, 132651, 132656, 8, args_1, NULL},
};

/* step 2: dot_bb */
static const arg_t args_2[] = {
    {sizeof(cl_mem), &buf_b},
    {sizeof(cl_mem), &buf_b},
    {0, NULL}
};
static const launch_t step_2[] = {
    {k_dot_partial_f64, 0, 0, 132651, 132656, 8, args_2, &partials[0]},
};

/* step 3: loop.dot_rr */
static const arg_t args_3[] = {
    {sizeof(cl_mem), &buf_init_r_dst},
    {sizeof(cl_mem), &buf_init_r_dst},
    {0, NULL}
};
static const launch_t step_3[] = {
    {k_dot_partial_f64, 0, 0, 132651, 132656, 8, args_3, &partials[0]},
};

/* step 4: loop.spmv */
static const arg_t args_4[] = {
    {sizeof(cl_mem), &buf_rowptr},
    {sizeof(cl_mem), &buf_colidx},
    {sizeof(cl_mem), &buf_values},
    {sizeof(cl_mem), &buf_init_p_dst},
    {sizeof(cl_mem), &buf_loop_spmv_y},
    {0, NULL}
};
static const launch_t step_4[] = {
    {k_spmv_csr_i32_f64, 0, 0, 132651, 132656, 8, args_4, NULL},
};

/* step 5: loop.dot_pap */
static const arg_t args_5[] = {
    {sizeof(cl_mem), &buf_init_p_dst},
    {sizeof(cl_mem), &buf_loop_spmv_y},
    {0, NULL}
};
static const launch_t step_5[] = {
    {k_dot_partial_f64, 0, 0, 132651, 132656, 8, args_5, &partials[0]},
};

/* step 6: loop.axpy_x */
static const arg_t args_6[] = {
    {sizeof(cl_mem), &buf_x},
    {sizeof(cl_mem), &buf_init_p_dst},
    {sizeof(double), &h_loop_alpha_q},
    {0, NULL}
};
static const launch_t step_6[] = {
    {k_axpy_f64, 0, 0, 132651, 132656, 8, args_6, NULL},
};

/* step 7: loop.axpy_r */
static const arg_t args_7[] = {
    {sizeof(cl_mem), &buf_init_r_dst},
    {sizeof(cl_mem), &buf_loop_spmv_y},
    {sizeof(double), &h_loop_neg_alpha_z},
    {0, NULL}
};
static const launch_t step_7[] = {
    {k_axpy_f64, 0, 0, 132651, 132656, 8, args_7, NULL},
};

/* step 8: loop.dot_rrn */
static const arg_t args_8[] = {
    {sizeof(cl_mem), &buf_init_r_dst},
    {sizeof(cl_mem), &buf_init_r_dst},
    {0, NULL}
};
static const launch_t step_8[] = {
    {k_dot_partial_f64, 0, 0, 132651, 132656, 8, args_8, &partials[0]},
};

/* step 9: loop.scale_p */
static const arg_t args_9[] = {
    {sizeof(cl_mem), &buf_init_p_dst},
    {sizeof(double), &h_loop_beta_q},
    {0, NULL}
};
static const launch_t step_9[] = {
    {k_scale_f64, 0, 0, 132651, 132656, 8, args_9, NULL},
};

/* step 10: loop.axpy_p */
static const arg_t args_10[] = {
    {sizeof(cl_mem), &buf_init_p_dst},
    {sizeof(cl_mem), &buf_init_r_dst},
    {0, NULL}
};
static const launch_t step_10[] = {
    {k_axpy_f64_2, 0, 0, 132651, 132656, 8, args_10, NULL},
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
    char* source = read_text_file("cg_kernels.cl", &source_size);
    cl_program program = clCreateProgramWithSource(context, 1, (const char**)&source,
                                                   &source_size, &err);
    CHECK(err, "clCreateProgramWithSource");
    err = clBuildProgram(program, DEVICE_COUNT, devices, NULL, NULL, NULL);
    CHECK(err, "clBuildProgram");
    for (int k = 0; k < KERNEL_COUNT; ++k) {
        kernels[k] = clCreateKernel(program, kernel_names[k], &err);
        CHECK(err, kernel_names[k]);
    }

    buf_rowptr = clCreateBuffer(context, CL_MEM_READ_WRITE, 530608, NULL, &err);
    CHECK(err, "clCreateBuffer rowptr");
    buf_colidx = clCreateBuffer(context, CL_MEM_READ_WRITE, 13771804, NULL, &err);
    CHECK(err, "clCreateBuffer colidx");
    buf_values = clCreateBuffer(context, CL_MEM_READ_WRITE, 27543608, NULL, &err);
    CHECK(err, "clCreateBuffer values");
    buf_b = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer b");
    buf_init_r_dst = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer init_r_dst");
    buf_init_p_dst = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer init_p_dst");
    buf_x = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer x");
    buf_loop_spmv_y = clCreateBuffer(context, CL_MEM_READ_WRITE, 1061208, NULL, &err);
    CHECK(err, "clCreateBuffer loop_spmv_y");
    for (int d = 0; d < DEVICE_COUNT; ++d) {
        partials[d] = clCreateBuffer(context, CL_MEM_READ_WRITE, 132656, NULL, &err);
        CHECK(err, "clCreateBuffer partials");
    }

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

    run_step(step_0, 1);
    run_step(step_1, 1);
    run_step(step_2, 1);
    h_dot_bb_s = sum_doubles(step_2, 1);
    /* loop loop: until h_loop_relres < 1e-10 */
    for (int it = 0; it < 132651; ++it) {
        run_step(step_3, 1);
        h_loop_dot_rr_s = sum_doubles(step_3, 1);
        run_step(step_4, 1);
        run_step(step_5, 1);
        h_loop_dot_pap_s = sum_doubles(step_5, 1);
        h_loop_alpha_q = h_loop_dot_rr_s / h_loop_dot_pap_s;
        h_loop_neg_alpha_z = -h_loop_alpha_q;
        run_step(step_6, 1);
        run_step(step_7, 1);
        run_step(step_8, 1);
        h_loop_dot_rrn_s = sum_doubles(step_8, 1);
        h_loop_relres = sqrt(h_loop_dot_rrn_s) / sqrt(h_dot_bb_s);
        h_loop_beta_q = h_loop_dot_rrn_s / h_loop_dot_rr_s;
        run_step(step_9, 1);
        run_step(step_10, 1);
        ++iters;
        if (h_loop_relres < 1e-10) break;
    }
    converged = converged && h_loop_relres < 1e-10;

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
    for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseMemObject(partials[d]);
    for (int k = 0; k < KERNEL_COUNT; ++k) clReleaseKernel(kernels[k]);
    clReleaseProgram(program);
    free(source);
    for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);
    clReleaseContext(context);
    return converged ? 0 : 3;
}
