#include "obs/profiler.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace redplane::obs {

namespace internal {
Profiler* g_profiler = nullptr;
Profiler* g_armed = nullptr;

std::uint64_t NextGeneration() {
  static std::uint64_t next = 0;
  return ++next;
}
}  // namespace internal

Profiler* SetGlobalProfiler(Profiler* profiler) {
  Profiler* prev = internal::g_profiler;
  internal::g_profiler = profiler;
  internal::g_armed =
      profiler != nullptr && profiler->enabled() ? profiler : nullptr;
  return prev;
}

void Profiler::SetEnabled(bool enabled) {
  enabled_ = enabled;
  if (internal::g_profiler == this) {
    internal::g_armed = enabled ? this : nullptr;
  }
}

Profiler::Profiler() : generation_(internal::NextGeneration()) {
  site_names_.emplace_back("?");
}

std::uint16_t Profiler::InternSite(ProfSite& site) {
  if (site.cached_generation == generation_) {
    return site.id;
  }
  // Sites are few (one per instrumented region); a linear scan on the first
  // entry per generation keeps the registration path allocation-light.
  std::uint16_t id = 0;
  for (std::size_t i = 0; i < site_names_.size(); ++i) {
    if (site_names_[i] == site.name) {
      id = static_cast<std::uint16_t>(i);
      break;
    }
  }
  if (id == 0 && site_names_.size() < 0xFFFF) {
    site_names_.emplace_back(site.name);
    id = static_cast<std::uint16_t>(site_names_.size() - 1);
  }
  site.cached_generation = generation_;
  site.id = id;
  return id;
}

std::int32_t Profiler::ChildNode(std::int32_t parent, std::uint16_t site) {
  const auto& siblings =
      parent < 0 ? roots_ : nodes_[static_cast<std::size_t>(parent)].children;
  for (std::int32_t c : siblings) {
    if (nodes_[static_cast<std::size_t>(c)].site == site) return c;
  }
  ProfNode node;
  node.site = site;
  node.parent = parent;
  nodes_.push_back(std::move(node));
  const auto index = static_cast<std::int32_t>(nodes_.size() - 1);
  if (parent < 0) {
    roots_.push_back(index);
  } else {
    nodes_[static_cast<std::size_t>(parent)].children.push_back(index);
  }
  return index;
}

std::int32_t Profiler::Enter(ProfSite& site) {
  const std::uint16_t id = InternSite(site);
  const std::int32_t prev = current_;
  current_ = ChildNode(current_, id);
  return prev;
}

void Profiler::Leave(std::int32_t prev_node, std::uint64_t dur_ns,
                     std::uint32_t stride) {
  ProfNode& node = nodes_[static_cast<std::size_t>(current_)];
  node.count += stride;
  node.total_ns += dur_ns * stride;
  current_ = prev_node;
}

const std::string& Profiler::SiteName(std::uint16_t id) const {
  static const std::string kUnknown = "?";
  return id < site_names_.size() ? site_names_[id] : kUnknown;
}

std::uint64_t Profiler::SelfNs(std::int32_t node) const {
  const ProfNode& n = nodes_[static_cast<std::size_t>(node)];
  std::uint64_t children = 0;
  for (std::int32_t c : n.children) {
    children += nodes_[static_cast<std::size_t>(c)].total_ns;
  }
  return children >= n.total_ns ? 0 : n.total_ns - children;
}

std::vector<ProfSiteTotal> Profiler::SiteTotals() const {
  std::vector<ProfSiteTotal> totals(site_names_.size());
  for (std::size_t i = 0; i < site_names_.size(); ++i) {
    totals[i].name = site_names_[i];
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ProfNode& n = nodes_[i];
    ProfSiteTotal& t = totals[n.site];
    t.count += n.count;
    // A site nested under itself (recursion) would double-count inclusive
    // time; only roots of same-site chains contribute their total.
    bool under_same_site = false;
    for (std::int32_t p = n.parent; p >= 0;
         p = nodes_[static_cast<std::size_t>(p)].parent) {
      if (nodes_[static_cast<std::size_t>(p)].site == n.site) {
        under_same_site = true;
        break;
      }
    }
    if (!under_same_site) t.total_ns += n.total_ns;
    t.self_ns += SelfNs(static_cast<std::int32_t>(i));
  }
  totals.erase(std::remove_if(totals.begin(), totals.end(),
                              [](const ProfSiteTotal& t) {
                                return t.count == 0 && t.total_ns == 0;
                              }),
               totals.end());
  std::sort(totals.begin(), totals.end(),
            [](const ProfSiteTotal& a, const ProfSiteTotal& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  return totals;
}

namespace {

void PathOf(const std::vector<ProfNode>& nodes,
            const Profiler& prof, std::int32_t index, std::string& out) {
  const ProfNode& n = nodes[static_cast<std::size_t>(index)];
  if (n.parent >= 0) {
    PathOf(nodes, prof, n.parent, out);
    out += ';';
  }
  out += prof.SiteName(n.site);
}

}  // namespace

void Profiler::WriteCollapsed(std::ostream& os) const {
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::uint64_t self = SelfNs(static_cast<std::int32_t>(i));
    if (self == 0) continue;
    std::string path;
    PathOf(nodes_, *this, static_cast<std::int32_t>(i), path);
    lines.emplace_back(std::move(path), self);
  }
  std::sort(lines.begin(), lines.end());
  for (const auto& [path, self] : lines) {
    os << path << ' ' << self << '\n';
  }
}

void Profiler::WriteJson(std::ostream& os) const {
  os << "{\"nodes\": [";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ProfNode& n = nodes_[i];
    if (i) os << ",";
    os << "\n  {\"id\": " << i << ", \"parent\": " << n.parent
       << ", \"name\": \"" << JsonEscape(SiteName(n.site)) << "\", \"count\": "
       << n.count << ", \"total_ns\": " << n.total_ns
       << ", \"self_ns\": " << SelfNs(static_cast<std::int32_t>(i)) << "}";
  }
  os << "\n], \"sites\": [";
  const auto totals = SiteTotals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const ProfSiteTotal& t = totals[i];
    if (i) os << ",";
    os << "\n  {\"name\": \"" << JsonEscape(t.name) << "\", \"count\": "
       << t.count << ", \"total_ns\": " << t.total_ns
       << ", \"self_ns\": " << t.self_ns << "}";
  }
  os << "\n]}\n";
}

std::string Profiler::Json() const {
  std::ostringstream oss;
  WriteJson(oss);
  return oss.str();
}

void Profiler::Reset() {
  nodes_.clear();
  roots_.clear();
  site_names_.clear();
  site_names_.emplace_back("?");
  current_ = -1;
  generation_ = internal::NextGeneration();
}

}  // namespace redplane::obs
