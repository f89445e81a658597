/*
 * The subset of the OpenCL 1.1 API that gmodelc's host programs use, for
 * syntax checks of the generated code without an OpenCL SDK.  Types,
 * constants and prototypes follow the Khronos cl.h of OpenCL 1.1; nothing
 * here is implemented.
 */
#ifndef GMODELC_CLSTUB_CL_H
#define GMODELC_CLSTUB_CL_H

#include <stddef.h>
#include <stdint.h>

typedef int32_t cl_int;
typedef uint32_t cl_uint;
typedef uint64_t cl_ulong;
typedef cl_uint cl_bool;
typedef cl_ulong cl_bitfield;
typedef cl_bitfield cl_device_type;
typedef cl_bitfield cl_mem_flags;
typedef cl_bitfield cl_command_queue_properties;
typedef intptr_t cl_context_properties;

typedef struct _cl_platform_id* cl_platform_id;
typedef struct _cl_device_id* cl_device_id;
typedef struct _cl_context* cl_context;
typedef struct _cl_command_queue* cl_command_queue;
typedef struct _cl_mem* cl_mem;
typedef struct _cl_program* cl_program;
typedef struct _cl_kernel* cl_kernel;
typedef struct _cl_event* cl_event;

#define CL_SUCCESS 0
#define CL_FALSE 0
#define CL_TRUE 1
#define CL_DEVICE_TYPE_ALL 0xFFFFFFFF
#define CL_MEM_READ_WRITE (1 << 0)

cl_int clGetPlatformIDs(cl_uint num_entries, cl_platform_id* platforms, cl_uint* num_platforms);
cl_int clGetDeviceIDs(cl_platform_id platform, cl_device_type device_type, cl_uint num_entries,
                      cl_device_id* devices, cl_uint* num_devices);
cl_context clCreateContext(const cl_context_properties* properties, cl_uint num_devices,
                           const cl_device_id* devices,
                           void (*pfn_notify)(const char*, const void*, size_t, void*),
                           void* user_data, cl_int* errcode_ret);
cl_command_queue clCreateCommandQueue(cl_context context, cl_device_id device,
                                      cl_command_queue_properties properties,
                                      cl_int* errcode_ret);
cl_program clCreateProgramWithSource(cl_context context, cl_uint count, const char** strings,
                                     const size_t* lengths, cl_int* errcode_ret);
cl_int clBuildProgram(cl_program program, cl_uint num_devices, const cl_device_id* device_list,
                      const char* options, void (*pfn_notify)(cl_program, void*),
                      void* user_data);
cl_kernel clCreateKernel(cl_program program, const char* kernel_name, cl_int* errcode_ret);
cl_mem clCreateBuffer(cl_context context, cl_mem_flags flags, size_t size, void* host_ptr,
                      cl_int* errcode_ret);
cl_int clSetKernelArg(cl_kernel kernel, cl_uint arg_index, size_t arg_size,
                      const void* arg_value);
cl_int clEnqueueNDRangeKernel(cl_command_queue command_queue, cl_kernel kernel,
                              cl_uint work_dim, const size_t* global_work_offset,
                              const size_t* global_work_size, const size_t* local_work_size,
                              cl_uint num_events_in_wait_list, const cl_event* event_wait_list,
                              cl_event* event);
cl_int clEnqueueReadBuffer(cl_command_queue command_queue, cl_mem buffer, cl_bool blocking_read,
                           size_t offset, size_t cb, void* ptr, cl_uint num_events_in_wait_list,
                           const cl_event* event_wait_list, cl_event* event);
cl_int clEnqueueWriteBuffer(cl_command_queue command_queue, cl_mem buffer,
                            cl_bool blocking_write, size_t offset, size_t cb, const void* ptr,
                            cl_uint num_events_in_wait_list, const cl_event* event_wait_list,
                            cl_event* event);
cl_int clFinish(cl_command_queue command_queue);
cl_int clReleaseMemObject(cl_mem memobj);
cl_int clReleaseKernel(cl_kernel kernel);
cl_int clReleaseProgram(cl_program program);
cl_int clReleaseCommandQueue(cl_command_queue command_queue);
cl_int clReleaseContext(cl_context context);

#endif
