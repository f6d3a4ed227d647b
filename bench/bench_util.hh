/**
 * @file
 * Small shared helpers for the benchmark harnesses: command-line flag
 * parsing (--key=value), a global scale knob so `--scale=10` (or the
 * SURF_BENCH_SCALE environment variable) buys more Monte-Carlo precision,
 * and machine-readable JSON result emission (`BENCH_<name>.json`) so the
 * performance trajectory can be tracked across commits. Also the
 * clustered defect sampler the figure harnesses share.
 */

#ifndef SURF_BENCH_BENCH_UTIL_HH
#define SURF_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "defects/defect_sampler.hh"
#include "lattice/patch.hh"
#include "util/rng.hh"

namespace surf::benchutil {

/** Sample k defective sites inside the patch's data bounding box as one
 *  or more diameter-2 burst clusters with uniform centers. */
inline std::set<Coord>
clusteredDefects(const CodePatch &patch, int k, Rng &rng)
{
    std::set<Coord> sites;
    while (static_cast<int>(sites.size()) < k) {
        const Coord center{
            patch.xMin() + static_cast<int>(rng.below(static_cast<uint64_t>(
                               patch.xMax() - patch.xMin() + 1))),
            patch.yMin() + static_cast<int>(rng.below(static_cast<uint64_t>(
                               patch.yMax() - patch.yMin() + 1)))};
        for (const Coord &c : DefectSampler::regionSites(center, 2)) {
            if (static_cast<int>(sites.size()) >= k)
                break;
            if (c.x >= patch.xMin() && c.x <= patch.xMax() &&
                c.y >= patch.yMin() && c.y <= patch.yMax())
                sites.insert(c);
        }
    }
    return sites;
}

/** Parse --key=value (double) from argv, else fall back to `fallback`. */
inline double
flagValue(int argc, char **argv, const char *key, double fallback)
{
    const std::string prefix = std::string("--") + key + "=";
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return std::atof(argv[i] + prefix.size());
    return fallback;
}

/** Monte-Carlo budget multiplier: --scale flag or SURF_BENCH_SCALE env. */
inline double
scale(int argc, char **argv)
{
    double s = flagValue(argc, argv, "scale", 0.0);
    if (s > 0.0)
        return s;
    if (const char *env = std::getenv("SURF_BENCH_SCALE"))
        return std::atof(env);
    return 1.0;
}

inline void
header(const char *title)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", title);
    std::printf("==========================================================\n");
}

/** Parse --key=value (string) from argv, else `fallback` (may be null). */
inline const char *
flagString(int argc, char **argv, const char *key, const char *fallback)
{
    const std::string prefix = std::string("--") + key + "=";
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return argv[i] + prefix.size();
    return fallback;
}

/**
 * Machine-readable benchmark results. Metrics are recorded as flat
 * (name, value) pairs; on destruction, if JSON output is enabled via
 * `--json=DIR` or the SURF_BENCH_JSON environment variable (a directory,
 * or "1" for the working directory), the file `DIR/BENCH_<bench>.json`
 * is written with the schema
 *
 *   { "schema": 1, "bench": "<bench>",
 *     "metrics": [ {"name": "...", "value": <double>}, ... ] }
 *
 * so CI and future PRs can diff perf numbers without scraping stdout.
 */
class JsonReport
{
  public:
    JsonReport(int argc, char **argv, const char *bench) : bench_(bench)
    {
        const char *dir =
            flagString(argc, argv, "json", std::getenv("SURF_BENCH_JSON"));
        if (dir)
            dir_ = (std::strcmp(dir, "1") == 0) ? "." : dir;
    }

    bool enabled() const { return !dir_.empty(); }

    void
    metric(const std::string &name, double value)
    {
        metrics_.push_back({name, value});
    }

    ~JsonReport()
    {
        if (!enabled())
            return;
        const std::string path = dir_ + "/BENCH_" + bench_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"schema\": 1,\n  \"bench\": \"%s\",\n"
                        "  \"metrics\": [\n", bench_.c_str());
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.17g}%s\n",
                         metrics_[i].first.c_str(), metrics_[i].second,
                         i + 1 < metrics_.size() ? "," : "");
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s (%zu metrics)\n", path.c_str(),
                    metrics_.size());
    }

  private:
    std::string bench_;
    std::string dir_;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace surf::benchutil

#endif // SURF_BENCH_BENCH_UTIL_HH
