#include "src/engine/database.h"

#include "src/util/check.h"

namespace dfp {
namespace {

uint64_t TotalBytes(const DatabaseConfig& config) {
  return config.columns_bytes + config.strings_bytes + config.hashtables_bytes +
         config.state_bytes + config.output_bytes + config.extra_bytes +
         (1 << 16) /* reserved head room */;
}

}  // namespace

Database::Database(DatabaseConfig config) : config_(config), mem_(TotalBytes(config)) {
  columns_region_ = mem_.CreateRegion("columns", config.columns_bytes);
  strings_region_ = mem_.CreateRegion("strings", config.strings_bytes);
  hashtables_region_ = mem_.CreateRegion("hashtables", config.hashtables_bytes);
  state_region_ = mem_.CreateRegion("state", config.state_bytes);
  output_region_ = mem_.CreateRegion("output", config.output_bytes);
  strings_ = std::make_unique<StringHeap>(&mem_, strings_region_);
  runtime_ = std::make_unique<Runtime>(&mem_, &code_map_, hashtables_region_);
}

void Database::AddTable(Table table) {
  std::string name = table.name();
  DFP_CHECK(tables_.emplace(std::move(name), std::move(table)).second);
  ++catalog_version_;
}

const Table& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw Error("unknown table: '" + name + "'");
  }
  return it->second;
}

void CoreReturn::operator()(Core* core) const {
  db->free_cores_.push_back(std::unique_ptr<Core>(core));
}

CorePtr Database::AcquireCore() {
  if (free_cores_.empty()) {
    return CorePtr(new Core(mem_, code_map_, config_.pmu_costs), CoreReturn{this});
  }
  CorePtr core(free_cores_.back().release(), CoreReturn{this});
  free_cores_.pop_back();
  core->cpu.Reset();
  core->pmu = Pmu(config_.pmu_costs);
  return core;
}

void Database::ResetScratch() {
  mem_.ResetRegion(hashtables_region_);
  mem_.ResetRegion(state_region_);
  mem_.ResetRegion(output_region_);
}

}  // namespace dfp
