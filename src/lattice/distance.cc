#include "lattice/distance.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "pauli/bitmatrix.hh"
#include "util/logging.hh"

namespace surf {

namespace {

using Word = uint64_t;

/**
 * The flat distance kernel. index() lays a patch out once: the sorted
 * data list, a grid from coordinates to data indices (data sites are
 * odd-odd, so the grid has half the pitch), and one table of bit rows,
 * `words_` words each, holding every stabilizer generator (plain
 * stabilizer checks in check order, then one row per super-stabilizer,
 * the XOR of its members) followed by every gauge check in check order.
 * Filtered by type, the table lists that type's generators in
 * CodePatch::stabilizerGenerators() order, then its gauge checks: the row
 * order that decides which kernel vector and which BFS path a query
 * returns. The queries reuse the kernel's buffers, so one kernel per
 * thread answers them without allocating once its buffers have grown.
 */
class DistanceKernel
{
  public:
    void index(const CodePatch &patch);

    /** algebraicLogical(patch, t) into `logical_`; false when none. */
    bool findLogical(PauliType t);

    /** graphDistance(patch, t). */
    DistanceResult distance(PauliType t);

    /** The qubits of `logical_`, ascending. */
    std::vector<Coord> logicalCoords() const;

  private:
    bool
    test(const Word *row, size_t i) const
    {
        return (row[i >> 6] >> (i & 63)) & 1;
    }
    Word *row(size_t r) { return rows_.data() + r * words_; }

    size_t qubitIndex(Coord q) const;
    /** Copy the rows of type t, in table order, into `out`. */
    size_t gatherRows(PauliType t, std::vector<Word> &out);
    /** Gauss-Jordan on `m` rows of `rows` to reduced row echelon form,
     *  with BitMatrix's pivot rule: the pivot of each column is the first
     *  remaining row holding it. `pivots` gets the pivot column of each
     *  of the leading rank rows; the other rows end up zero. */
    void eliminate(Word *rows, size_t m, std::vector<size_t> &pivots) const;

    /** The RREF of one type's rows, built on first use per patch. */
    struct Reduced
    {
        std::vector<Word> rows;
        std::vector<size_t> pivots;
        bool valid = false;
    };
    const Reduced &reduced(PauliType t);

    std::vector<Coord> list_;
    int x0_ = 0, y0_ = 0, width_ = 0, height_ = 0;
    std::vector<int> grid_; ///< (y - y0) / 2 * width + (x - x0) / 2, or -1
    size_t n_ = 0, words_ = 0;
    std::vector<Word> rows_;
    std::vector<PauliType> types_;
    size_t numGens_ = 0; ///< rows [0, numGens_) are generators

    Reduced reduced_[2]; ///< by PauliType

    // Query buffers.
    std::vector<Word> logical_, residual_;
    std::vector<uint8_t> isPivot_;
    std::vector<int> degree_, first_, second_;
    struct Edge
    {
        int from;
        int to;
        int crossing; ///< 1 when the qubit flips the reference parity
        int label;    ///< data qubit index
    };
    std::vector<Edge> edges_;
    std::vector<int> offset_, cursor_, adj_, dist_, parentEdge_, queue_, path_;
};

size_t
DistanceKernel::qubitIndex(Coord q) const
{
    const bool inside = q.isDataSite() && q.x >= x0_ && q.y >= y0_ &&
                        (q.x - x0_) / 2 < width_ && (q.y - y0_) / 2 < height_;
    const int i = inside ? grid_[static_cast<size_t>((q.y - y0_) / 2) *
                                     static_cast<size_t>(width_) +
                                 static_cast<size_t>((q.x - x0_) / 2)]
                         : -1;
    SURF_ASSERT(i >= 0, "dead qubit in support");
    return static_cast<size_t>(i);
}

void
DistanceKernel::index(const CodePatch &patch)
{
    list_.assign(patch.dataQubits().begin(), patch.dataQubits().end());
    n_ = list_.size();
    words_ = (n_ + 63) / 64;
    rows_.clear();
    types_.clear();
    numGens_ = 0;
    for (Reduced &red : reduced_)
        red.valid = false;
    if (n_ == 0)
        return;
    int x1 = list_.front().x, y1 = list_.front().y;
    x0_ = x1;
    y0_ = y1;
    for (const Coord &q : list_) {
        x0_ = std::min(x0_, q.x);
        x1 = std::max(x1, q.x);
        y0_ = std::min(y0_, q.y);
        y1 = std::max(y1, q.y);
    }
    width_ = (x1 - x0_) / 2 + 1;
    height_ = (y1 - y0_) / 2 + 1;
    grid_.assign(static_cast<size_t>(width_) * static_cast<size_t>(height_),
                 -1);
    for (size_t i = 0; i < n_; ++i)
        grid_[static_cast<size_t>((list_[i].y - y0_) / 2) *
                  static_cast<size_t>(width_) +
              static_cast<size_t>((list_[i].x - x0_) / 2)] =
            static_cast<int>(i);

    // Every check is a plain stabilizer or a gauge: one row each, plus
    // one row per super cluster.
    const auto &checks = patch.checks();
    const size_t num_rows = checks.size() + patch.supers().size();
    rows_.assign(num_rows * words_, 0);
    types_.resize(num_rows);
    size_t r = 0;
    const auto set_support = [&](const Check &c) {
        types_[r] = c.type;
        Word *bits = row(r++);
        for (const Coord &q : c.support) {
            const size_t i = qubitIndex(q);
            bits[i >> 6] |= Word{1} << (i & 63);
        }
    };
    for (const Check &c : checks)
        if (c.role == CheckRole::Stabilizer)
            set_support(c);
    for (const SuperStab &ss : patch.supers()) {
        types_[r] = ss.type;
        Word *bits = row(r++);
        for (int m : ss.members)
            for (const Coord &q : checks[static_cast<size_t>(m)].support) {
                const size_t i = qubitIndex(q);
                bits[i >> 6] ^= Word{1} << (i & 63);
            }
    }
    numGens_ = r;
    for (const Check &c : checks)
        if (c.role == CheckRole::Gauge)
            set_support(c);
}

size_t
DistanceKernel::gatherRows(PauliType t, std::vector<Word> &out)
{
    const auto m = static_cast<size_t>(
        std::count(types_.begin(), types_.end(), t));
    out.resize(m * words_);
    Word *dst = out.data();
    for (size_t r = 0; r < types_.size(); ++r)
        if (types_[r] == t)
            dst = std::copy(row(r), row(r) + words_, dst);
    return m;
}

void
DistanceKernel::eliminate(Word *rows, size_t m,
                          std::vector<size_t> &pivots) const
{
    pivots.clear();
    for (size_t col = 0; col < n_ && pivots.size() < m; ++col) {
        const size_t rank = pivots.size();
        const size_t w = col >> 6;
        const Word bit = Word{1} << (col & 63);
        size_t pivot = rank;
        while (pivot < m && !(rows[pivot * words_ + w] & bit))
            ++pivot;
        if (pivot == m)
            continue;
        Word *prow = rows + rank * words_;
        if (pivot != rank)
            std::swap_ranges(prow, prow + words_, rows + pivot * words_);
        // Rows from `rank` on are zero left of `col`, so the pivot row's
        // words below w are zero.
        for (size_t r = 0; r < m; ++r) {
            Word *other = rows + r * words_;
            if (r != rank && (other[w] & bit))
                for (size_t k = w; k < words_; ++k)
                    other[k] ^= prow[k];
        }
        pivots.push_back(col);
    }
}

const DistanceKernel::Reduced &
DistanceKernel::reduced(PauliType t)
{
    Reduced &red = reduced_[static_cast<size_t>(t)];
    if (!red.valid) {
        const size_t m = gatherRows(t, red.rows);
        eliminate(red.rows.data(), m, red.pivots);
        red.valid = true;
    }
    return red;
}

bool
DistanceKernel::findLogical(PauliType t)
{
    if (n_ == 0)
        return false;
    // Constraints: commute with every opposite-type generator and gauge
    // check (bare representative). Trivial subgroup: same-type
    // generators and gauge checks. Both are RREFs of one type's rows, so
    // the X and Z queries of one patch share them.
    const Reduced &con = reduced(oppositeType(t));
    const Reduced &triv = reduced(t);
    const size_t rank = con.pivots.size();

    // The kernel basis has one vector per free column, in ascending
    // order: the free bit plus the pivot of every RREF row holding it.
    // Return the first one outside the trivial span; row r of the
    // trivial RREF is zero left of its pivot and on every other pivot
    // column, so reducing in pivot order clears each pivot for good.
    isPivot_.assign(n_, 0);
    for (size_t c : con.pivots)
        isPivot_[c] = 1;
    logical_.resize(words_);
    residual_.resize(words_);
    for (size_t free_col = 0; free_col < n_; ++free_col) {
        if (isPivot_[free_col])
            continue;
        std::fill(logical_.begin(), logical_.end(), 0);
        logical_[free_col >> 6] |= Word{1} << (free_col & 63);
        for (size_t r = 0; r < rank; ++r)
            if (test(con.rows.data() + r * words_, free_col))
                logical_[con.pivots[r] >> 6] |= Word{1}
                                                << (con.pivots[r] & 63);
        residual_ = logical_;
        for (size_t r = 0; r < triv.pivots.size(); ++r) {
            const size_t col = triv.pivots[r];
            if (!test(residual_.data(), col))
                continue;
            const Word *tr = triv.rows.data() + r * words_;
            for (size_t k = col >> 6; k < words_; ++k)
                residual_[k] ^= tr[k];
        }
        for (Word w : residual_)
            if (w)
                return true;
    }
    return false;
}

std::vector<Coord>
DistanceKernel::logicalCoords() const
{
    std::vector<Coord> out;
    for (size_t w = 0; w < words_; ++w)
        for (Word bits = logical_[w]; bits; bits &= bits - 1)
            out.push_back(
                list_[w * 64 + static_cast<size_t>(std::countr_zero(bits))]);
    return out;
}

DistanceResult
DistanceKernel::distance(PauliType t)
{
    DistanceResult result;
    if (!findLogical(oppositeType(t)))
        return result; // encoded qubit destroyed for this type

    // Detecting generators (opposite type) become graph nodes, numbered
    // in generator order; one shared virtual boundary node absorbs
    // deficient qubits. Each qubit keeps its first two generators.
    degree_.assign(n_, 0);
    first_.resize(n_);
    second_.resize(n_);
    int node_b = 0;
    for (size_t r = 0; r < numGens_; ++r) {
        if (types_[r] != oppositeType(t))
            continue;
        const Word *gen = row(r);
        for (size_t w = 0; w < words_; ++w)
            for (Word bits = gen[w]; bits; bits &= bits - 1) {
                const size_t q =
                    w * 64 + static_cast<size_t>(std::countr_zero(bits));
                const int seen = degree_[q]++;
                if (seen == 0)
                    first_[q] = node_b;
                else if (seen == 1)
                    second_[q] = node_b;
            }
        ++node_b;
    }

    // One edge per usable data qubit, in data order.
    edges_.clear();
    for (size_t q = 0; q < n_; ++q) {
        const int deg = degree_[q];
        if (deg > 2) {
            // Hypergraph-like region (extreme defect density): chains
            // cannot pass through this qubit in the pair-matching
            // formalism; exclude it and report the congestion.
            ++result.congestedQubits;
            continue;
        }
        const bool crossing = test(logical_.data(), q);
        const int a = (deg >= 1) ? first_[q] : node_b;
        const int b = (deg == 2) ? second_[q] : node_b;
        if (a == b && !crossing)
            continue; // parity-neutral self-loop: never useful
        edges_.push_back({a, b, crossing ? 1 : 0, static_cast<int>(q)});
    }

    // Parity-doubled multigraph (node 2v + parity) in CSR form, each
    // node's edges in edge order.
    const size_t n_nodes = 2 * (static_cast<size_t>(node_b) + 1);
    offset_.assign(n_nodes + 1, 0);
    for (const Edge &edge : edges_) {
        const auto a = static_cast<size_t>(edge.from);
        const auto b = static_cast<size_t>(edge.to);
        offset_[2 * a + 1] += 1;
        offset_[2 * a + 2] += 1;
        if (a != b) {
            offset_[2 * b + 1] += 1;
            offset_[2 * b + 2] += 1;
        }
    }
    for (size_t v = 0; v < n_nodes; ++v)
        offset_[v + 1] += offset_[v];
    cursor_.assign(offset_.begin(), offset_.end() - 1);
    adj_.resize(static_cast<size_t>(offset_[n_nodes]));
    for (size_t e = 0; e < edges_.size(); ++e) {
        const auto a = static_cast<size_t>(edges_[e].from);
        const auto b = static_cast<size_t>(edges_[e].to);
        adj_[static_cast<size_t>(cursor_[2 * a]++)] = static_cast<int>(e);
        adj_[static_cast<size_t>(cursor_[2 * a + 1]++)] = static_cast<int>(e);
        if (a != b) {
            adj_[static_cast<size_t>(cursor_[2 * b]++)] = static_cast<int>(e);
            adj_[static_cast<size_t>(cursor_[2 * b + 1]++)] =
                static_cast<int>(e);
        }
    }

    // FIFO BFS from (B, even) to (B, odd).
    const int start = 2 * node_b;
    const int goal = 2 * node_b + 1;
    dist_.assign(n_nodes, -1);
    parentEdge_.resize(n_nodes);
    queue_.clear();
    dist_[static_cast<size_t>(start)] = 0;
    queue_.push_back(start);
    for (size_t head = 0; head < queue_.size(); ++head) {
        const int v = queue_[head];
        if (v == goal)
            break;
        const int base = v >> 1, parity = v & 1;
        for (int i = offset_[static_cast<size_t>(v)];
             i < offset_[static_cast<size_t>(v) + 1]; ++i) {
            const int e = adj_[static_cast<size_t>(i)];
            const Edge &edge = edges_[static_cast<size_t>(e)];
            const int other = (edge.from == base) ? edge.to : edge.from;
            const int w = 2 * other + (parity ^ edge.crossing);
            if (w == v || dist_[static_cast<size_t>(w)] >= 0)
                continue;
            dist_[static_cast<size_t>(w)] = dist_[static_cast<size_t>(v)] + 1;
            parentEdge_[static_cast<size_t>(w)] = e;
            queue_.push_back(w);
        }
    }
    if (dist_[static_cast<size_t>(goal)] < 0)
        return result; // no undetectable crossing chain: destroyed
    result.distance = static_cast<size_t>(dist_[static_cast<size_t>(goal)]);

    // Walk the parent edges back; qubit indices sort like coordinates.
    path_.clear();
    for (int v = goal; v != start;) {
        const Edge &edge =
            edges_[static_cast<size_t>(parentEdge_[static_cast<size_t>(v)])];
        path_.push_back(edge.label);
        const int base = v >> 1, parity = v & 1;
        const int prev_base = (edge.from == base) ? edge.to : edge.from;
        v = 2 * prev_base + (parity ^ edge.crossing);
    }
    std::sort(path_.begin(), path_.end());
    result.path.reserve(path_.size());
    for (int q : path_)
        result.path.push_back(list_[static_cast<size_t>(q)]);
    return result;
}

/** The calling thread's kernel. */
DistanceKernel &
threadKernel()
{
    thread_local DistanceKernel kernel;
    return kernel;
}

} // namespace

std::vector<Coord>
algebraicLogical(const CodePatch &patch, PauliType t)
{
    DistanceKernel &k = threadKernel();
    k.index(patch);
    if (!k.findLogical(t))
        return {};
    return k.logicalCoords();
}

DistanceResult
graphDistance(const CodePatch &patch, PauliType t)
{
    DistanceKernel &k = threadKernel();
    k.index(patch);
    return k.distance(t);
}

DistanceResults
graphDistances(const CodePatch &patch)
{
    DistanceKernel &k = threadKernel();
    k.index(patch);
    DistanceResults out;
    out.x = k.distance(PauliType::X);
    out.z = k.distance(PauliType::Z);
    return out;
}

size_t
codeDistance(const CodePatch &patch)
{
    const DistanceResults d = graphDistances(patch);
    return std::min(d.x.distance, d.z.distance);
}

std::vector<Coord>
bareLogicalRep(const CodePatch &patch, PauliType t)
{
    return bareLogicalRep(patch, t, graphDistance(patch, t));
}

std::vector<Coord>
bareLogicalRep(const CodePatch &patch, PauliType t, const DistanceResult &res)
{
    SURF_ASSERT(res.distance > 0, "patch has no type-", typeChar(t),
                " logical operator");
    std::vector<Coord> rep = res.path;

    // Collect the opposite-type gauge checks the bare rep must commute with.
    std::vector<const Check *> opp_gauges;
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == oppositeType(t))
            opp_gauges.push_back(&c);
    if (opp_gauges.empty())
        return rep;

    auto clash_vec = [&](const std::vector<Coord> &support) {
        BitVec v(opp_gauges.size());
        for (size_t i = 0; i < opp_gauges.size(); ++i)
            if (supportsAnticommute(support, opp_gauges[i]->support))
                v.set(i, true);
        return v;
    };
    const BitVec target = clash_vec(rep);
    if (target.isZero())
        return rep;

    // Fix up with same-type generators and gauge checks (GF(2) solve).
    std::vector<std::vector<Coord>> adjusters;
    for (const auto &g : patch.stabilizerGenerators())
        if (g.type == t)
            adjusters.push_back(g.support);
    for (const auto &c : patch.checks())
        if (c.role == CheckRole::Gauge && c.type == t)
            adjusters.push_back(c.support);

    BitMatrix mat(opp_gauges.size());
    for (const auto &a : adjusters)
        mat.addRow(clash_vec(a));
    auto combo = mat.solveCombination(target);
    SURF_ASSERT(combo.has_value(), "no bare logical representative found");
    for (size_t r = 0; r < adjusters.size(); ++r)
        if (combo->get(r))
            rep = supportXor(rep, adjusters[r]);
    SURF_ASSERT(!rep.empty(), "bare logical collapsed to identity");
    return rep;
}

void
refreshLogicals(CodePatch &patch)
{
    const DistanceResults d = graphDistances(patch);
    refreshLogicals(patch, d.x, d.z);
}

void
refreshLogicals(CodePatch &patch, const DistanceResult &x,
                const DistanceResult &z)
{
    patch.setLogicalX(bareLogicalRep(patch, PauliType::X, x));
    patch.setLogicalZ(bareLogicalRep(patch, PauliType::Z, z));
}

} // namespace surf
