#include "decode/graph.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

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

/** Radix-queue key of a non-negative distance: its IEEE-754 bits,
 *  which order like the values. */
uint64_t
keyOf(double d)
{
    uint64_t k;
    std::memcpy(&k, &d, sizeof k);
    return k;
}

/** Bucket of `key` relative to the last popped key: 0 when equal, else
 *  one past the highest bit in which they differ. */
int
bucketOf(uint64_t key, uint64_t last)
{
    return std::bit_width(key ^ last);
}

} // namespace

MatchingBackend
defaultMatchingBackend()
{
    return MatchingBackend::Sparse;
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
        // The radix queue orders distances by their bit patterns, which
        // needs finite, positive weights.
        SURF_ASSERT(std::isfinite(w) && w > 0.0, "edge weight ", w,
                    " from p = ", e.p);
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

    if (backend_ == MatchingBackend::Dense)
        buildApsp(pool);
    else
        rows_ = std::vector<std::atomic<const Row *>>(numNodes());
}

DecodingGraph::~DecodingGraph()
{
    for (auto &slot : rows_)
        delete slot.load(std::memory_order_relaxed);
}

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
           rows_.size() * sizeof(rows_[0]) +
           rows_resident_.load(std::memory_order_relaxed) * row_bytes;
}

void
DecodingGraph::search(int src, DijkstraScratch &sc, Row *record) const
{
    using Entry = DijkstraScratch::Entry;
    const size_t n = numNodes() + 1;
    sc.bind(n);
    if (++sc.cur == 0) {
        std::fill(sc.gen.begin(), sc.gen.end(), 0);
        sc.cur = 1;
    }
    auto &buckets = sc.buckets;
    auto &ties = buckets[0]; // popped from `head` on
    size_t head = 0;
    uint64_t last = keyOf(0.0); // key of the last popped entry
    uint64_t mask = 1;          // bit b set iff bucket b has entries
    uint64_t lo[DijkstraScratch::kBuckets]; // smallest key per bucket
    std::fill(std::begin(lo), std::end(lo), UINT64_MAX);
    auto put = [&](const Entry &e, int j) {
        lo[j] = std::min(lo[j], e.key);
        mask |= uint64_t{1} << j;
        buckets[static_cast<size_t>(j)].push_back(e);
    };
    const auto by_node = [](const Entry &a, const Entry &b) {
        return a.node < b.node;
    };
    // Plain pointers: the bucket pushes would otherwise make the compiler
    // reload every vector's data pointer (and the stamp) per relaxation.
    double *const dist = sc.dist.data();
    uint8_t *const par = sc.par.data();
    uint32_t *const gen = sc.gen.data();
    const uint32_t cur = sc.cur;
    const uint32_t *const off = csr_off_.data();
    const int *const to_node = csr_to_.data();
    const double *const weight = csr_w_.data();
    const uint8_t *const flips = csr_obs_.data();
    dist[src] = 0.0;
    par[src] = 0;
    gen[src] = cur;
    ties.push_back({last, src});
    while (mask != 0) {
        if (!(mask & 1)) {
            // The ties ran dry: the lowest nonempty bucket holds the
            // smallest key. Make it `last` and redistribute the bucket;
            // its entries all land in lower buckets.
            const int b = std::countr_zero(mask);
            auto &from = buckets[static_cast<size_t>(b)];
            mask &= ~(uint64_t{1} << b);
            last = std::exchange(lo[b], UINT64_MAX);
            for (const Entry &e : from) {
                const int j = bucketOf(e.key, last);
                if (j == 0)
                    ties.push_back(e);
                else
                    put(e, j);
            }
            from.clear();
            mask |= 1;
            // Equal distances pop in ascending node id. Relaxation order
            // mostly pushes them that way already.
            if (!std::is_sorted(ties.begin(), ties.end(), by_node))
                std::sort(ties.begin(), ties.end(), by_node);
            continue;
        }
        const Entry top = ties[head++];
        if (head == ties.size()) {
            ties.clear();
            head = 0;
            mask &= ~uint64_t{1};
        }
        const auto vi = static_cast<size_t>(top.node);
        const double dv = dist[vi];
        if (top.key != keyOf(dv))
            continue; // stale entry: v already settled closer
        if (record) {
            record->dist[vi] = static_cast<float>(dv);
            record->par[vi] = par[vi];
        }
        for (uint32_t i = off[vi]; i < off[vi + 1]; ++i) {
            const auto to = static_cast<size_t>(to_node[i]);
            const double nd = dv + weight[i];
            if (gen[to] != cur || nd < dist[to] - 1e-12) {
                gen[to] = cur;
                dist[to] = nd;
                par[to] = par[vi] ^ flips[i];
                const Entry e{keyOf(nd), to_node[i]};
                const int j = bucketOf(e.key, last);
                if (j == 0) { // nd rounded to dv: keep the ties sorted
                    ties.insert(std::upper_bound(ties.begin() + head,
                                                 ties.end(), e, by_node),
                                e);
                    mask |= 1;
                } else {
                    put(e, j);
                }
            }
        }
    }
}

std::unique_ptr<DecodingGraph::Row>
DecodingGraph::buildRow(int src, DijkstraScratch &sc) const
{
    auto row = std::make_unique<Row>();
    row->dist.assign(numNodes() + 1,
                     std::numeric_limits<float>::infinity());
    row->par.assign(numNodes() + 1, 0);
    search(src, sc, row.get());
    return row;
}

const DecodingGraph::Row *
DecodingGraph::publish(int src, std::unique_ptr<const Row> fresh) const
{
    const Row *cur = nullptr;
    if (!rows_[static_cast<size_t>(src)].compare_exchange_strong(
            cur, fresh.get(), std::memory_order_acq_rel,
            std::memory_order_acquire))
        return nullptr; // `fresh` frees the losing copy
    rows_resident_.fetch_add(1, std::memory_order_relaxed);
    return fresh.release(); // owned by the slot until ~DecodingGraph
}

const DecodingGraph::Row &
DecodingGraph::row(int src, DijkstraScratch &sc) const
{
    SURF_ASSERT(backend_ != MatchingBackend::Dense &&
                    static_cast<size_t>(src) < rows_.size(),
                "row queries are a Sparse-backend defect-node facility");
    auto &slot = rows_[static_cast<size_t>(src)];
    if (const Row *cur = slot.load(std::memory_order_acquire))
        return *cur;
    if (const Row *mine = publish(src, buildRow(src, sc)))
        return *mine;
    // Lost the race to an identical row: read the winner's.
    return *slot.load(std::memory_order_acquire);
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
    for (size_t i = 0; i < rows_.size(); ++i)
        if (const Row *r = rows_[i].load(std::memory_order_acquire))
            fn(static_cast<int>(i), *r);
}

bool
DecodingGraph::restoreRow(int src, Row &&row) const
{
    // Dense graphs have no row slots, so every source is out of range.
    if (src < 0 || static_cast<size_t>(src) >= rows_.size())
        return false;
    const size_t n = numNodes() + 1;
    if (row.dist.size() != n || row.par.size() != n)
        return false;
    if (rows_[static_cast<size_t>(src)].load(std::memory_order_acquire))
        return false; // a live row exists; values are identical anyway
    // False when a decode worker published this source first.
    return publish(src, std::make_unique<const Row>(std::move(row))) !=
           nullptr;
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
