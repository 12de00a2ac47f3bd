// perfbench: runs one benchmark workload in this process and prints what it
// measured and checked as one JSON line. perfbench/run.py drives it; by hand:
//   perfbench --workload=philly-2048 --seed=1 --trace=0 --out=perfbench-out/x
#include <filesystem>
#include <iostream>

#include "harness.h"
#include "src/common/flags.h"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload=philly-2048|philly-256-rigid|serve-tenants --seed=N\n"
    "                 --trace=0|1 --out=DIR\n";

}  // namespace

int main(int argc, char** argv) {
  sia::FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::cerr << flags.error() << "\n" << kUsage;
    return 2;
  }
  perfbench::RunArgs args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.traced = flags.GetInt("trace", 0) != 0;
  args.out_dir = flags.GetString("out", "");
  const bool serve = args.workload == "serve-tenants";
  if (args.out_dir.empty() || (!serve && !perfbench::IsSimWorkload(args.workload))) {
    std::cerr << kUsage;
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.out_dir << ": " << ec.message() << "\n";
    return 1;
  }
  perfbench::Report report;
  if (serve) {
    perfbench::RunServeWorkload(args, &report);
  } else {
    perfbench::RunSimWorkload(args, &report);
  }
  std::cout << report.ToJson() << std::endl;
  return 0;
}
