/*
 * Reads an OpenCL C kernel file as C99, for syntax checks of the generated
 * kernels: the address-space and kernel qualifiers expand to nothing, but
 * __constant to const, and the work-item functions are declared.  Include
 * it first (gcc -include).
 */
#ifndef GMODELC_CLSTUB_OPENCL_C_H
#define GMODELC_CLSTUB_OPENCL_C_H

#include <stddef.h>

/* OPENCL EXTENSION pragmas mean nothing to a C compiler */
#pragma GCC diagnostic ignored "-Wunknown-pragmas"

#define __kernel
#define __global
/* constant memory is read-only to a kernel: a store through it fails */
#define __constant const
#define __local

size_t get_global_id(unsigned dim);
size_t get_local_id(unsigned dim);
size_t get_group_id(unsigned dim);
size_t get_local_size(unsigned dim);
size_t get_global_size(unsigned dim);

#endif
