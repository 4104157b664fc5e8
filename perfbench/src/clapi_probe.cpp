// The wrappers forward to the real entry points, so this file must see
// the undecorated names: it includes cl_api.hpp, not the probe header.
#include "clsim/cl_api.hpp"
#include "spans.hpp"

cl_int perfbench_clBuildProgram(cl_program program, cl_uint num_devices,
                                const cl_device_id* device_list,
                                const char* options, void* pfn_notify,
                                void* user_data) {
  perfbench::Span span("clsim.build");
  return clBuildProgram(program, num_devices, device_list, options,
                        pfn_notify, user_data);
}

// A blocking transfer waits for the queue; it is recorded as a wait so the
// enqueue spans hold only the cost of queuing.
cl_int perfbench_clEnqueueWriteBuffer(cl_command_queue queue, cl_mem buffer,
                                      cl_bool blocking_write,
                                      std::size_t offset, std::size_t size,
                                      const void* ptr, cl_uint num_events,
                                      const cl_event* wait_list,
                                      cl_event* event) {
  perfbench::Span span(blocking_write ? "clsim.wait" : "clsim.enqueue");
  return clEnqueueWriteBuffer(queue, buffer, blocking_write, offset, size,
                              ptr, num_events, wait_list, event);
}

cl_int perfbench_clEnqueueReadBuffer(cl_command_queue queue, cl_mem buffer,
                                     cl_bool blocking_read,
                                     std::size_t offset, std::size_t size,
                                     void* ptr, cl_uint num_events,
                                     const cl_event* wait_list,
                                     cl_event* event) {
  perfbench::Span span(blocking_read ? "clsim.wait" : "clsim.enqueue");
  return clEnqueueReadBuffer(queue, buffer, blocking_read, offset, size, ptr,
                             num_events, wait_list, event);
}

cl_int perfbench_clEnqueueNDRangeKernel(
    cl_command_queue queue, cl_kernel kernel, cl_uint work_dim,
    const std::size_t* global_work_offset,
    const std::size_t* global_work_size, const std::size_t* local_work_size,
    cl_uint num_events, const cl_event* wait_list, cl_event* event) {
  perfbench::Span span("clsim.enqueue");
  return clEnqueueNDRangeKernel(queue, kernel, work_dim, global_work_offset,
                                global_work_size, local_work_size,
                                num_events, wait_list, event);
}

cl_int perfbench_clFinish(cl_command_queue queue) {
  perfbench::Span span("clsim.wait");
  return clFinish(queue);
}
