#ifndef PERFBENCH_CLAPI_PROBE_HPP
#define PERFBENCH_CLAPI_PROBE_HPP

/// \file clapi_probe.hpp
/// Timed wrappers for the clsim C host API calls that build, enqueue and
/// wait. The benchmark force-includes this header into the benchsuite's
/// OpenCL-style hosts (see CMakeLists.txt) and includes it in its own
/// OpenCL-style twins, so every such call in the workload is recorded as a
/// clsim span in the traced run. With tracing off a wrapper only forwards.

#include "clsim/cl_api.hpp"

cl_int perfbench_clBuildProgram(cl_program program, cl_uint num_devices,
                                const cl_device_id* device_list,
                                const char* options, void* pfn_notify,
                                void* user_data);
cl_int perfbench_clEnqueueWriteBuffer(cl_command_queue queue, cl_mem buffer,
                                      cl_bool blocking_write,
                                      std::size_t offset, std::size_t size,
                                      const void* ptr, cl_uint num_events,
                                      const cl_event* wait_list,
                                      cl_event* event);
cl_int perfbench_clEnqueueReadBuffer(cl_command_queue queue, cl_mem buffer,
                                     cl_bool blocking_read,
                                     std::size_t offset, std::size_t size,
                                     void* ptr, cl_uint num_events,
                                     const cl_event* wait_list,
                                     cl_event* event);
cl_int perfbench_clEnqueueNDRangeKernel(
    cl_command_queue queue, cl_kernel kernel, cl_uint work_dim,
    const std::size_t* global_work_offset,
    const std::size_t* global_work_size, const std::size_t* local_work_size,
    cl_uint num_events, const cl_event* wait_list, cl_event* event);
cl_int perfbench_clFinish(cl_command_queue queue);

#define clBuildProgram perfbench_clBuildProgram
#define clEnqueueWriteBuffer perfbench_clEnqueueWriteBuffer
#define clEnqueueReadBuffer perfbench_clEnqueueReadBuffer
#define clEnqueueNDRangeKernel perfbench_clEnqueueNDRangeKernel
#define clFinish perfbench_clFinish

#endif  // PERFBENCH_CLAPI_PROBE_HPP
