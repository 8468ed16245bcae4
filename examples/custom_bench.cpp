// Bring-your-own-netlist workflow: write/parse an ISCAS-style .bench
// file, annotate delays, export/import SDF (the interchange format the
// paper's flow reads), and run the coverage analysis on it.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "flow/hdf_flow.hpp"
#include "netlist/netlist_io.hpp"
#include "timing/sdf.hpp"
#include "timing/sta_engine.hpp"

namespace {

constexpr const char* kDemoBench = R"(# demo: registered 3-stage pipeline fragment
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
r0 = DFF(n4)
r1 = DFF(n6)
n1 = NAND(a, b)
n2 = NOR(c, d)
n3 = XOR(n1, n2)
n4 = AND(n3, r1)
n5 = NOT(n3)
n6 = OR(n5, r0)
y  = NAND(n4, n6)
z  = XOR(r0, r1)
)";

}  // namespace

int main() {
    using namespace fastmon;

    // The example's files go to a fresh scratch directory, never the
    // working directory: the repo root holds tracked fixtures of the
    // same names.
    std::string dir_name = (std::filesystem::temp_directory_path() /
                            "fastmon_custom_bench_XXXXXX")
                               .string();
    if (::mkdtemp(dir_name.data()) == nullptr) {
        std::perror("mkdtemp");
        return 1;
    }
    const std::filesystem::path dir = dir_name;

    // 1. Write the .bench file and parse it back.  read_netlist
    //    dispatches on the extension, so the same call also accepts
    //    .v structural Verilog and .aag/.aig AIGER files.
    const std::string bench_path = (dir / "demo_pipeline.bench").string();
    {
        std::ofstream out(bench_path);
        out << kDemoBench;
    }
    const Netlist netlist = read_netlist(bench_path);
    std::cout << "parsed " << netlist.name() << ": "
              << netlist.num_comb_gates() << " gates, "
              << netlist.flip_flops().size() << " FFs\n";

    // 2. Annotate with per-instance variation (sigma = 20 % as in the
    //    paper's fault-size model) and export SDF.
    const DelayAnnotation delays =
        DelayAnnotation::with_variation(netlist, 0.20, 99);
    const std::string sdf_path = (dir / "demo_pipeline.sdf").string();
    {
        std::ofstream out(sdf_path);
        write_sdf(out, netlist, delays);
    }
    std::cout << "wrote " << sdf_path << "\n";

    // 3. Re-import the SDF (round trip) and verify STA agreement.
    std::ifstream sdf_in(sdf_path);
    const DelayAnnotation reloaded = read_sdf(sdf_in, netlist);
    const StaResult sta_a = StaEngine(netlist, delays).analyze();
    const StaResult sta_b = StaEngine(netlist, reloaded).analyze();
    std::cout << "critical path: annotated " << sta_a.critical_path_length
              << " ps, from SDF " << sta_b.critical_path_length << " ps\n";

    // 4. Coverage analysis with monitors on all pseudo outputs (the
    //    circuit is tiny; the paper's 25 % applies to large designs).
    HdfFlowConfig config;
    config.seed = 5;
    config.monitor_fraction = 1.0;
    HdfFlow flow(netlist, config);
    const HdfFlowResult r = flow.run();
    std::cout << "HDFs detected: conventional " << r.detected_conv
              << ", with monitors " << r.detected_prop << " of "
              << r.fault_universe << " faults; " << r.freq_prop
              << " FAST frequencies suffice\n";
    std::filesystem::remove_all(dir);
    return 0;
}
