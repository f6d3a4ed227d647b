#include "decode/graph.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace surf {

namespace {

double
edgeWeight(double p)
{
    // Clamp into (0, 0.5) so weights stay positive and finite.
    const double q = std::clamp(p, 1e-14, 0.499999);
    return std::log((1.0 - q) / q);
}

} // namespace

MatchingBackend
defaultMatchingBackend()
{
    static const MatchingBackend def = [] {
        const char *env = std::getenv("SURF_MATCHING_BACKEND");
        if (env && std::strcmp(env, "dense") == 0)
            return MatchingBackend::Dense;
        if (env && (std::strcmp(env, "sparse_blossom") == 0 ||
                    std::strcmp(env, "blossom") == 0))
            return MatchingBackend::SparseBlossom;
        if (env && *env && std::strcmp(env, "sparse") != 0 &&
            std::strcmp(env, "rows") != 0)
            warn(std::string("SURF_MATCHING_BACKEND='") + env +
                 "' is not a known backend (dense, sparse, rows, "
                 "sparse_blossom); using the sparse default");
        return MatchingBackend::Sparse;
    }();
    return def;
}

DecodingGraph::DecodingGraph(const DetectorErrorModel &dem, uint8_t tag,
                             ThreadPool *pool, MatchingBackend backend)
    : backend_(backend), tag_(tag)
{
    local_of_.assign(dem.numDetectors, -1);
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        if (dem.detectorTag[d] == tag) {
            local_of_[d] = static_cast<int>(global_of_.size());
            global_of_.push_back(d);
        }
    }
    const int bnode = boundaryNode();
    // Build per-node adjacency in DEM edge order (both directions of an
    // edge appended as encountered), then flatten to CSR. The neighbor
    // order fixes the Dijkstra relaxation order, which both backends
    // share — identical witnesses for tie-broken shortest paths.
    struct Dir
    {
        int to;
        double w;
        bool obs;
    };
    std::vector<std::vector<Dir>> adj(numNodes() + 1);
    size_t n_dirs = 0;
    for (const DemEdge &e : dem.edges[tag]) {
        const int a = (e.a < 0) ? bnode : local_of_[static_cast<size_t>(e.a)];
        const int b = (e.b < 0) ? bnode : local_of_[static_cast<size_t>(e.b)];
        SURF_ASSERT(a >= 0 && b >= 0, "edge references a foreign detector");
        if (a == b)
            continue;
        const double w = edgeWeight(e.p);
        adj[static_cast<size_t>(a)].push_back({b, w, e.flipsObs});
        adj[static_cast<size_t>(b)].push_back({a, w, e.flipsObs});
        n_dirs += 2;
    }
    csr_off_.resize(numNodes() + 2);
    csr_to_.resize(n_dirs);
    csr_w_.resize(n_dirs);
    csr_obs_.resize(n_dirs);
    uint32_t off = 0;
    for (size_t v = 0; v <= numNodes(); ++v) {
        csr_off_[v] = off;
        for (const Dir &d : adj[v]) {
            csr_to_[off] = d.to;
            csr_w_[off] = d.w;
            csr_obs_[off] = d.obs ? 1 : 0;
            ++off;
        }
    }
    csr_off_[numNodes() + 1] = off;

    if (backend_ == MatchingBackend::Dense) {
        buildApsp(pool);
    } else {
        rows_ =
            std::vector<std::atomic<std::shared_ptr<const Row>>>(numNodes());
        fast_rows_ = std::vector<std::atomic<const Row *>>(numNodes());
        row_stamp_ = std::vector<std::atomic<uint64_t>>(numNodes());
    }
}

DecodingGraph::~DecodingGraph() = default;

int
DecodingGraph::localOf(uint32_t global_det) const
{
    SURF_ASSERT(global_det < local_of_.size());
    return local_of_[global_det];
}

size_t
DecodingGraph::memoryBytes() const
{
    const size_t row_bytes =
        (numNodes() + 1) * (sizeof(float) + 1) + sizeof(Row);
    return global_of_.capacity() * sizeof(uint32_t) +
           local_of_.capacity() * sizeof(int) +
           csr_off_.capacity() * sizeof(uint32_t) +
           csr_to_.capacity() * sizeof(int) +
           csr_w_.capacity() * sizeof(double) + csr_obs_.capacity() +
           dist_.capacity() * sizeof(float) + obs_.capacity() +
           rows_.size() * (sizeof(rows_[0]) + sizeof(fast_rows_[0]) +
                           sizeof(row_stamp_[0])) +
           rows_resident_.load(std::memory_order_relaxed) * row_bytes;
}

void
DecodingGraph::setRowBudget(size_t max_rows)
{
    {
        std::lock_guard<std::mutex> lock(evict_mutex_);
        if (max_rows)
            // Sticky: readers must hold owned handles from here on
            // (eviction may free rows), so the raw fast path closes
            // for good. Must happen before any decode worker races.
            row_budget_ever_.store(true, std::memory_order_release);
        row_budget_ = max_rows;
    }
    enforceRowBudget();
}

void
DecodingGraph::enforceRowBudget() const
{
    std::lock_guard<std::mutex> lock(evict_mutex_);
    if (!row_budget_ ||
        rows_resident_.load(std::memory_order_relaxed) <= row_budget_)
        return;
    // Collect resident slots oldest-first and drop until within budget.
    // Readers holding shared_ptrs keep their rows alive; a dropped row
    // is rebuilt (identically) on its next use.
    std::vector<std::pair<uint64_t, int>> by_age;
    by_age.reserve(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i)
        if (rows_[i].load(std::memory_order_acquire))
            by_age.push_back(
                {row_stamp_[i].load(std::memory_order_relaxed),
                 static_cast<int>(i)});
    std::sort(by_age.begin(), by_age.end());
    for (const auto &[stamp, idx] : by_age) {
        if (rows_resident_.load(std::memory_order_relaxed) <= row_budget_)
            break;
        if (rows_[static_cast<size_t>(idx)].exchange(
                nullptr, std::memory_order_acq_rel)) {
            fast_rows_[static_cast<size_t>(idx)].store(
                nullptr, std::memory_order_release);
            rows_resident_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
}

void
DecodingGraph::search(int src, DijkstraScratch &sc, Row *record) const
{
    const size_t n = numNodes() + 1;
    sc.bind(n);
    if (++sc.cur == 0) {
        std::fill(sc.gen.begin(), sc.gen.end(), 0);
        sc.cur = 1;
    }
    using Item = std::pair<double, int>;
    const auto by_dist = std::greater<Item>();
    auto &heap = sc.heap;
    heap.clear();
    sc.dist[static_cast<size_t>(src)] = 0.0;
    sc.par[static_cast<size_t>(src)] = 0;
    sc.gen[static_cast<size_t>(src)] = sc.cur;
    heap.push_back({0.0, src});
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), by_dist);
        const auto [dv, v] = heap.back();
        heap.pop_back();
        const auto vi = static_cast<size_t>(v);
        if (dv > sc.dist[vi])
            continue; // stale entry: v already settled closer
        if (record) {
            record->dist[vi] = static_cast<float>(sc.dist[vi]);
            record->par[vi] = sc.par[vi];
        }
        const uint32_t b0 = csr_off_[vi], b1 = csr_off_[vi + 1];
        for (uint32_t i = b0; i < b1; ++i) {
            const auto to = static_cast<size_t>(csr_to_[i]);
            const double nd = dv + csr_w_[i];
            if (sc.gen[to] != sc.cur || nd < sc.dist[to] - 1e-12) {
                sc.gen[to] = sc.cur;
                sc.dist[to] = nd;
                sc.par[to] = sc.par[vi] ^ csr_obs_[i];
                heap.push_back({nd, csr_to_[i]});
                std::push_heap(heap.begin(), heap.end(), by_dist);
            }
        }
    }
}

DecodingGraph::Row *
DecodingGraph::buildRow(int src, DijkstraScratch &sc) const
{
    auto *row = new Row;
    row->dist.assign(numNodes() + 1,
                     std::numeric_limits<float>::infinity());
    row->par.assign(numNodes() + 1, 0);
    search(src, sc, row);
    return row;
}

std::shared_ptr<const DecodingGraph::Row>
DecodingGraph::row(int src, DijkstraScratch &sc) const
{
    SURF_ASSERT(backend_ != MatchingBackend::Dense &&
                    static_cast<size_t>(src) < rows_.size(),
                "row queries are a Sparse-backend defect-node facility");
    auto &slot = rows_[static_cast<size_t>(src)];
    // Unbudgeted graphs (the default) never evict, so warm hits read a
    // raw mirror pointer with no refcount traffic and return a
    // non-owning handle — the same lock-free fast path the raw-pointer
    // design had.
    if (!row_budget_ever_.load(std::memory_order_acquire)) {
        const Row *fast =
            fast_rows_[static_cast<size_t>(src)].load(
                std::memory_order_acquire);
        if (fast)
            return {std::shared_ptr<const void>(), fast};
    }
    // LRU stamps only matter when a budget can evict; the unbudgeted
    // path skips the shared tick counter so workers don't contend on
    // it for every defect of every shot.
    auto touch = [&] {
        if (row_budget_.load(std::memory_order_relaxed))
            row_stamp_[static_cast<size_t>(src)].store(
                row_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    };
    std::shared_ptr<const Row> cur = slot.load(std::memory_order_acquire);
    if (cur) {
        touch();
        return cur;
    }
    std::shared_ptr<const Row> fresh{buildRow(src, sc)};
    if (!slot.compare_exchange_strong(cur, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        // Lost the race; `cur` now holds the (identical) winner.
        touch();
        return cur;
    }
    rows_built_.fetch_add(1, std::memory_order_relaxed);
    rows_resident_.fetch_add(1, std::memory_order_relaxed);
    fast_rows_[static_cast<size_t>(src)].store(fresh.get(),
                                               std::memory_order_release);
    touch();
    if (row_budget_ &&
        rows_resident_.load(std::memory_order_relaxed) > row_budget_)
        enforceRowBudget();
    return fresh;
}

uint64_t
DecodingGraph::csrDigest() const
{
    // 64-bit FNV-1a over the CSR arrays' exact bit patterns (weights
    // hashed as their IEEE-754 images, so "equal digest" means
    // bit-identical relaxation inputs, not merely approximately equal).
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(numNodes());
    for (uint32_t v : csr_off_)
        mix(v);
    for (int v : csr_to_)
        mix(static_cast<uint64_t>(static_cast<int64_t>(v)));
    for (double w : csr_w_) {
        uint64_t bits;
        std::memcpy(&bits, &w, sizeof bits);
        mix(bits);
    }
    for (uint8_t v : csr_obs_)
        mix(v);
    return h;
}

void
DecodingGraph::forEachResidentRow(
    const std::function<void(int src, const Row &row)> &fn) const
{
    if (backend_ == MatchingBackend::Dense)
        return;
    for (size_t i = 0; i < rows_.size(); ++i) {
        // Owned handle: the row stays alive through the visit even if
        // the budget evicts the slot concurrently.
        std::shared_ptr<const Row> r =
            rows_[i].load(std::memory_order_acquire);
        if (r)
            fn(static_cast<int>(i), *r);
    }
}

bool
DecodingGraph::restoreRow(int src, Row &&row) const
{
    if (backend_ == MatchingBackend::Dense)
        return false;
    if (src < 0 || static_cast<size_t>(src) >= rows_.size())
        return false;
    const size_t n = numNodes() + 1;
    if (row.dist.size() != n || row.par.size() != n)
        return false;
    auto &slot = rows_[static_cast<size_t>(src)];
    std::shared_ptr<const Row> cur = slot.load(std::memory_order_acquire);
    if (cur)
        return false; // a live row exists; values are identical anyway
    std::shared_ptr<const Row> fresh =
        std::make_shared<const Row>(std::move(row));
    if (!slot.compare_exchange_strong(cur, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
        return false; // lost a publish race to a decode worker
    // Same bookkeeping as row()'s first publication, except rows_built_
    // stays untouched: a restore avoids a build, it doesn't perform one.
    rows_resident_.fetch_add(1, std::memory_order_relaxed);
    fast_rows_[static_cast<size_t>(src)].store(fresh.get(),
                                               std::memory_order_release);
    if (row_budget_.load(std::memory_order_relaxed)) {
        row_stamp_[static_cast<size_t>(src)].store(
            row_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        if (rows_resident_.load(std::memory_order_relaxed) >
            row_budget_.load(std::memory_order_relaxed))
            enforceRowBudget();
    }
    return true;
}

void
DecodingGraph::buildApsp(ThreadPool *pool)
{
    const size_t n = numNodes() + 1;
    dist_.assign(n * (n + 1) / 2, std::numeric_limits<float>::infinity());
    obs_.assign(n * (n + 1) / 2, 0);

    // Exhaustive Dijkstra from every source through the shared kernel.
    // Each source fills its own triangular row, so rows can run on any
    // worker with an identical result.
    std::vector<DijkstraScratch> scratch(pool ? pool->size() : 1);
    auto fillRow = [&](size_t src, size_t worker) {
        DijkstraScratch &sc = scratch[worker];
        search(static_cast<int>(src), sc, nullptr);
        for (size_t t = src; t < n; ++t) {
            if (sc.gen[t] != sc.cur)
                continue; // unreachable: stays at infinity
            const size_t idx =
                triIndex(static_cast<int>(src), static_cast<int>(t));
            dist_[idx] = static_cast<float>(sc.dist[t]);
            obs_[idx] = sc.par[t];
        }
    };
    if (pool)
        pool->parallelFor(n, fillRow);
    else
        for (size_t src = 0; src < n; ++src)
            fillRow(src, 0);
}

} // namespace surf
