#include "benchsuite/kernel_corpus.hpp"

#include <cstring>
#include <optional>

#include "benchsuite/ep.hpp"
#include "benchsuite/floyd.hpp"
#include "benchsuite/reduction.hpp"
#include "benchsuite/spmv.hpp"
#include "benchsuite/stencil.hpp"
#include "benchsuite/transpose.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace hplrepro::benchsuite {

namespace {

// A small harness around the clsim C++ API: one context/queue/program,
// buffers written directly (transfer accounting is not what the corpus
// measures), stats and sim time accumulated per launch.
class CorpusHarness {
public:
  CorpusHarness(const clsim::Device& device, const char* source,
                const std::string& build_options, const char* kernel_name,
                CorpusRun& run)
      : context_(device),
        queue_(context_),
        program_(context_, source),
        run_(run) {
    program_.build(build_options);
    run_.opt_report = program_.opt_report();
    for (const auto& fn : program_.module().functions) {
      run_.static_instrs += fn.code.size();
    }
    kernel_.emplace(program_, kernel_name);
  }

  clsim::Kernel& kernel() { return *kernel_; }

  clsim::Buffer make_buffer(std::size_t bytes, const void* init = nullptr) {
    clsim::Buffer buf(context_, bytes);
    if (init != nullptr) {
      std::memcpy(buf.raw(), init, bytes);
    } else {
      buf.fill_zero();
    }
    return buf;
  }

  void launch(const clsim::NDRange& global, const clsim::NDRange& local) {
    clsim::Event e = queue_.enqueue_ndrange_kernel(*kernel_, global, local);
    e.wait();  // profiling accessors need the completed launch
    run_.stats += e.stats();
    run_.kernel_sim_seconds += e.sim_seconds();
    run_.kernel_wall_seconds += e.wall_seconds();
  }

  void read_output(const clsim::Buffer& buf) {
    queue_.finish();  // raw() bypasses the queue; quiesce it first
    std::vector<std::byte> bytes(buf.size());
    std::memcpy(bytes.data(), buf.raw(), bytes.size());
    run_.outputs.push_back(std::move(bytes));
  }

private:
  clsim::Context context_;
  clsim::CommandQueue queue_;
  clsim::Program program_;
  std::optional<clsim::Kernel> kernel_;
  CorpusRun& run_;
};

void run_ep(const clsim::Device& device, const std::string& options,
            CorpusRun& run) {
  EpConfig config;
  config.pairs = 1 << 12;
  config.chunk = 64;
  config.local_size = 64;
  const std::size_t items = config.items();

  std::vector<double> seeds(items);
  for (std::size_t i = 0; i < items; ++i) {
    seeds[i] = NasLcg::skip_ahead(NasLcg::kDefaultSeed, 2 * config.chunk * i);
  }

  CorpusHarness h(device, ep_kernel_source(), options, "ep_kernel", run);
  clsim::Buffer seeds_buf =
      h.make_buffer(items * sizeof(double), seeds.data());
  clsim::Buffer sx_buf = h.make_buffer(items * sizeof(double));
  clsim::Buffer sy_buf = h.make_buffer(items * sizeof(double));
  clsim::Buffer q_buf = h.make_buffer(items * 10 * sizeof(std::int32_t));

  h.kernel().set_arg(0, seeds_buf);
  h.kernel().set_arg(1, sx_buf);
  h.kernel().set_arg(2, sy_buf);
  h.kernel().set_arg(3, q_buf);
  h.kernel().set_arg(4, static_cast<std::int32_t>(config.chunk));
  h.launch(clsim::NDRange{items}, clsim::NDRange{config.local_size});

  h.read_output(sx_buf);
  h.read_output(sy_buf);
  h.read_output(q_buf);
}

void run_floyd(const clsim::Device& device, const std::string& options,
               CorpusRun& run) {
  FloydConfig config;
  config.nodes = 48;
  config.tile = 16;
  const std::size_t n = config.nodes;
  const std::vector<float> graph = floyd_make_graph(config);

  CorpusHarness h(device, floyd_kernel_source(), options, "floyd_pass", run);
  clsim::Buffer dist = h.make_buffer(n * n * sizeof(float), graph.data());

  h.kernel().set_arg(0, dist);
  h.kernel().set_arg(1, static_cast<std::uint32_t>(n));
  for (std::size_t k = 0; k < n; ++k) {
    h.kernel().set_arg(2, static_cast<std::uint32_t>(k));
    h.launch(clsim::NDRange{n, n}, clsim::NDRange{config.tile, config.tile});
  }
  h.read_output(dist);
}

void run_reduction(const clsim::Device& device, const std::string& options,
                   CorpusRun& run, const ReductionConfig& config,
                   const char* kernel = "reduce_sum") {
  const std::vector<float> input = reduction_make_input(config);

  CorpusHarness h(device, reduction_kernel_source(), options, kernel, run);
  clsim::Buffer in =
      h.make_buffer(input.size() * sizeof(float), input.data());
  clsim::Buffer partials = h.make_buffer(config.groups * sizeof(float));

  h.kernel().set_arg(0, in);
  h.kernel().set_arg(1, partials);
  h.kernel().set_arg(2, static_cast<std::uint32_t>(config.elements));
  h.launch(clsim::NDRange{config.global_size()},
           clsim::NDRange{config.local_size});
  h.read_output(partials);
}

void run_spmv(const clsim::Device& device, const std::string& options,
              CorpusRun& run) {
  SpmvConfig config;
  config.rows = 96;
  config.density = 0.05;
  config.threads_per_row = 8;
  const CsrProblem problem = spmv_make_problem(config);
  const std::size_t n = config.rows;
  const std::size_t m = config.threads_per_row;

  CorpusHarness h(device, spmv_kernel_source(), options, "spmv_csr", run);
  clsim::Buffer values = h.make_buffer(
      problem.values.size() * sizeof(float), problem.values.data());
  clsim::Buffer vec =
      h.make_buffer(problem.vec.size() * sizeof(float), problem.vec.data());
  clsim::Buffer cols = h.make_buffer(
      problem.cols.size() * sizeof(std::int32_t), problem.cols.data());
  clsim::Buffer rowptr = h.make_buffer(
      problem.rowptr.size() * sizeof(std::int32_t), problem.rowptr.data());
  clsim::Buffer out = h.make_buffer(n * sizeof(float));

  h.kernel().set_arg(0, values);
  h.kernel().set_arg(1, vec);
  h.kernel().set_arg(2, cols);
  h.kernel().set_arg(3, rowptr);
  h.kernel().set_arg(4, out);
  h.kernel().set_arg(5, static_cast<std::uint32_t>(m));
  h.launch(clsim::NDRange{n * m}, clsim::NDRange{m});
  h.read_output(out);
}

void run_transpose(const clsim::Device& device, const std::string& options,
                   CorpusRun& run) {
  TransposeConfig config;
  config.rows = 64;
  config.cols = 32;
  const std::vector<float> input = transpose_make_input(config);

  CorpusHarness h(device, transpose_kernel_source(), options,
                  "transpose_tiled", run);
  clsim::Buffer out =
      h.make_buffer(config.rows * config.cols * sizeof(float));
  clsim::Buffer in =
      h.make_buffer(input.size() * sizeof(float), input.data());

  h.kernel().set_arg(0, out);
  h.kernel().set_arg(1, in);
  h.kernel().set_arg(2, static_cast<std::uint32_t>(config.rows));
  h.kernel().set_arg(3, static_cast<std::uint32_t>(config.cols));
  h.launch(clsim::NDRange{config.cols, config.rows},
           clsim::NDRange{TransposeConfig::kTile, TransposeConfig::kTile});
  h.read_output(out);
}

// The three stencils share launch geometry (image rounded up to tile
// multiples) and the runtime edge-policy argument; corpus runs use Clamp.
std::size_t stencil_round_up(std::size_t n) {
  const std::size_t tile = StencilConfig::kTile;
  return (n + tile - 1) / tile * tile;
}

void run_blur(const clsim::Device& device, const std::string& options,
              CorpusRun& run) {
  StencilConfig config;
  config.width = 48;
  config.height = 36;
  const std::vector<float> input = stencil_make_image(config);

  CorpusHarness h(device, blur_kernel_source(), options, "blur3", run);
  clsim::Buffer out = h.make_buffer(config.pixels() * sizeof(float));
  clsim::Buffer in =
      h.make_buffer(input.size() * sizeof(float), input.data());
  clsim::Buffer weights =
      h.make_buffer(9 * sizeof(float), blur_weights().data());

  h.kernel().set_arg(0, out);
  h.kernel().set_arg(1, in);
  h.kernel().set_arg(2, weights);
  h.kernel().set_arg(3, static_cast<std::int32_t>(config.width));
  h.kernel().set_arg(4, static_cast<std::int32_t>(config.height));
  h.kernel().set_arg(5, static_cast<std::int32_t>(config.edge));
  h.launch(clsim::NDRange{stencil_round_up(config.width),
                          stencil_round_up(config.height)},
           clsim::NDRange{StencilConfig::kTile, StencilConfig::kTile});
  h.read_output(out);
}

void run_sobel(const clsim::Device& device, const std::string& options,
               CorpusRun& run) {
  StencilConfig config;
  config.width = 48;
  config.height = 36;
  const std::vector<float> input = stencil_make_image(config);

  CorpusHarness h(device, sobel_kernel_source(), options, "sobel", run);
  clsim::Buffer out = h.make_buffer(config.pixels() * sizeof(float));
  clsim::Buffer in =
      h.make_buffer(input.size() * sizeof(float), input.data());

  h.kernel().set_arg(0, out);
  h.kernel().set_arg(1, in);
  h.kernel().set_arg(2, static_cast<std::int32_t>(config.width));
  h.kernel().set_arg(3, static_cast<std::int32_t>(config.height));
  h.kernel().set_arg(4, static_cast<std::int32_t>(config.edge));
  h.launch(clsim::NDRange{stencil_round_up(config.width),
                          stencil_round_up(config.height)},
           clsim::NDRange{StencilConfig::kTile, StencilConfig::kTile});
  h.read_output(out);
}

void run_jacobi(const clsim::Device& device, const std::string& options,
                CorpusRun& run, const StencilConfig& config) {
  const std::vector<float> input = stencil_make_image(config);

  CorpusHarness h(device, jacobi_kernel_source(), options, "jacobi_step",
                  run);
  clsim::Buffer ping =
      h.make_buffer(config.pixels() * sizeof(float), input.data());
  clsim::Buffer pong = h.make_buffer(config.pixels() * sizeof(float));
  clsim::Buffer* src = &ping;
  clsim::Buffer* dst = &pong;

  h.kernel().set_arg(2, static_cast<std::int32_t>(config.width));
  h.kernel().set_arg(3, static_cast<std::int32_t>(config.height));
  h.kernel().set_arg(4, static_cast<std::int32_t>(config.edge));
  for (int it = 0; it < config.iterations; ++it) {
    h.kernel().set_arg(0, *dst);
    h.kernel().set_arg(1, *src);
    h.launch(clsim::NDRange{stencil_round_up(config.width),
                            stencil_round_up(config.height)},
             clsim::NDRange{StencilConfig::kTile, StencilConfig::kTile});
    std::swap(src, dst);
  }
  h.read_output(*src);
}

// The barrier-exchange form of the Jacobi sweep on a 1-D ring: publish
// one cell to the tile, one barrier, relax against the two tile
// neighbours (periodic within the tile). Ping-pongs the buffers for a
// few sweeps so the row has enough signal.
void run_jacobi_ring(const clsim::Device& device, const std::string& options,
                     CorpusRun& run) {
  constexpr std::size_t kGroups = 8;
  constexpr std::size_t kLocal = 1024;  // the kernel's __local ring size
  constexpr int kSweeps = 4;
  const std::size_t n = kGroups * kLocal;
  std::vector<float> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = static_cast<float>(i % 97) * 0.25f;
  }

  CorpusHarness h(device, jacobi_kernel_source(), options, "jacobi_ring",
                  run);
  clsim::Buffer a = h.make_buffer(n * sizeof(float), input.data());
  clsim::Buffer b = h.make_buffer(n * sizeof(float));
  clsim::Buffer* src = &a;
  clsim::Buffer* dst = &b;
  for (int s = 0; s < kSweeps; ++s) {
    h.kernel().set_arg(0, *dst);
    h.kernel().set_arg(1, *src);
    h.kernel().set_arg(2, static_cast<std::uint32_t>(kLocal - 1));
    h.launch(clsim::NDRange{n}, clsim::NDRange{kLocal});
    std::swap(src, dst);
  }
  h.read_output(*src);
}

// Geometries: the corpus sizes stay test-speed small; the _big variants
// give the barrier-heavy kernels enough items per group that group
// scheduling cost (what work-group compilation removes) dominates.
ReductionConfig reduction_corpus_config() {
  ReductionConfig config;
  config.elements = 1 << 12;
  config.groups = 8;
  config.local_size = 64;
  return config;
}

ReductionConfig reduction_big_config() {
  ReductionConfig config;
  // One element per item, 256-item groups, and the flat two-region
  // kernel (reduce_sum_flat): per-item work is O(1), so the per-item
  // activation cost that work-group loops remove dominates.
  config.groups = 8;
  config.local_size = 1024;  // reduce_sum_flat's __local tile size
  config.elements = config.groups * config.local_size;
  return config;
}

StencilConfig jacobi_corpus_config() {
  StencilConfig config;
  config.width = 48;
  config.height = 36;
  config.iterations = 3;
  return config;
}

// The patterns.hpp axpy as HPL generates it: one straight-line region
// whose every item touches only its own elements.
const char* kAxpySource = R"CLC(
__kernel void axpy(__global float* y, __global const float* x, float a) {
  const size_t idx = get_global_id(0);
  y[idx] = a * x[idx] + y[idx];
}
)CLC";

void run_axpy(const clsim::Device& device, const std::string& options,
              CorpusRun& run) {
  constexpr std::size_t kItems = 1 << 16;
  SplitMix64 rng(0xA3B1);
  std::vector<float> x(kItems), y(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    x[i] = rng.next_float();
    y[i] = rng.next_float();
  }
  CorpusHarness h(device, kAxpySource, options, "axpy", run);
  clsim::Buffer yb = h.make_buffer(kItems * sizeof(float), y.data());
  clsim::Buffer xb = h.make_buffer(kItems * sizeof(float), x.data());
  h.kernel().set_arg(0, yb);
  h.kernel().set_arg(1, xb);
  h.kernel().set_arg(2, 2.5f);
  h.launch(clsim::NDRange{kItems}, clsim::NDRange{256});
  h.read_output(yb);
}

}  // namespace

const std::vector<std::string>& corpus_kernel_names() {
  static const std::vector<std::string> names = {
      "ep",   "floyd", "reduction", "spmv",
      "blur", "sobel", "jacobi",    "transpose"};
  return names;
}

const std::vector<std::string>& barrier_kernel_names() {
  static const std::vector<std::string> names = {"reduction_big",
                                                 "jacobi_big"};
  return names;
}

const std::vector<std::string>& lane_kernel_names() {
  static const std::vector<std::string> names = {"axpy"};
  return names;
}

CorpusRun run_corpus_kernel(const std::string& name,
                            const clsim::Device& device,
                            const std::string& build_options) {
  CorpusRun run;
  run.name = name;
  if (name == "ep") {
    run_ep(device, build_options, run);
  } else if (name == "floyd") {
    run_floyd(device, build_options, run);
  } else if (name == "reduction") {
    run_reduction(device, build_options, run, reduction_corpus_config());
  } else if (name == "reduction_big") {
    run_reduction(device, build_options, run, reduction_big_config(),
                  "reduce_sum_flat");
  } else if (name == "spmv") {
    run_spmv(device, build_options, run);
  } else if (name == "blur") {
    run_blur(device, build_options, run);
  } else if (name == "sobel") {
    run_sobel(device, build_options, run);
  } else if (name == "jacobi") {
    run_jacobi(device, build_options, run, jacobi_corpus_config());
  } else if (name == "jacobi_big") {
    run_jacobi_ring(device, build_options, run);
  } else if (name == "transpose") {
    run_transpose(device, build_options, run);
  } else if (name == "axpy") {
    run_axpy(device, build_options, run);
  } else {
    throw hplrepro::InvalidArgument("unknown corpus kernel '" + name + "'");
  }
  return run;
}

}  // namespace hplrepro::benchsuite
