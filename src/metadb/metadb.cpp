#include "metadb/metadb.h"

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/stage.h"

namespace tiera {

MetaDb::MetaDb(std::string path, Metrics metrics,
               std::unique_ptr<SegmentLog> log)
    : path_(std::move(path)), metrics_(metrics), log_(std::move(log)) {}

MetaDb::~MetaDb() { (void)log_->sync(); }

Result<std::unique_ptr<MetaDb>> MetaDb::open(std::string path,
                                             MetaDbOptions options) {
  MetricsRegistry& reg = MetricsRegistry::global();
  SegmentLogHooks hooks{
      .batches = &reg.counter("tiera_metadb_group_commit_batches_total"),
      .records = &reg.counter("tiera_metadb_group_commit_records_total"),
      .fsyncs = &reg.counter("tiera_metadb_group_commit_fsyncs_total"),
      .compactions = &reg.counter("tiera_metadb_compactions_total"),
      // A sticky journal failure is exactly the kind of state transition an
      // incident report needs on its timeline.
      .on_error =
          [](const Status& error) {
            FlightRecorder::global().record_transition(
                "journal-error", 0, static_cast<std::uint64_t>(error.code()));
          },
  };
  auto log = SegmentLog::open(
      path,
      SegmentLogOptions{.compact_min_bytes = options.auto_compact_min_bytes,
                        .sync = options.sync_every_write,
                        .batch_bytes = options.journal_batch_bytes,
                        .batch_wait = options.journal_batch_wait},
      std::move(hooks));
  if (!log.ok()) return log.status();
  const Metrics metrics{
      .puts = &reg.counter("tiera_metadb_puts_total"),
      .gets = &reg.counter("tiera_metadb_gets_total"),
      .erases = &reg.counter("tiera_metadb_erases_total"),
      .log_bytes = &reg.gauge("tiera_metadb_log_bytes"),
      .live_keys = &reg.gauge("tiera_metadb_live_keys"),
  };
  return std::unique_ptr<MetaDb>(
      new MetaDb(std::move(path), metrics, std::move(log).value()));
}

void MetaDb::update_gauges() {
  metrics_.log_bytes->set(static_cast<double>(log_->log_bytes()));
  metrics_.live_keys->set(static_cast<double>(log_->size()));
}

Status MetaDb::put(std::string_view key, ByteView value) {
  // Journal cost attribution: encode + stage + group-commit wait all count
  // as journal.append in the per-op stage breakdown.
  StageTimer stage(Stage::kJournalAppend);
  metrics_.puts->inc();
  TIERA_RETURN_IF_ERROR(log_->put(key, value));
  update_gauges();
  return Status::Ok();
}

Result<Bytes> MetaDb::get(std::string_view key) const {
  metrics_.gets->inc();
  return log_->get(key);
}

bool MetaDb::contains(std::string_view key) const {
  return log_->value_size(key).has_value();
}

Status MetaDb::erase(std::string_view key) {
  StageTimer stage(Stage::kJournalAppend);
  metrics_.erases->inc();
  TIERA_RETURN_IF_ERROR(log_->erase(key));
  update_gauges();
  return Status::Ok();
}

Status MetaDb::scan(
    const std::function<bool(std::string_view, ByteView)>& fn) const {
  return scan_prefix({}, fn);
}

Status MetaDb::scan_prefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, ByteView)>& fn) const {
  return log_->scan(prefix, fn);
}

std::size_t MetaDb::size() const { return log_->size(); }

std::uint64_t MetaDb::log_bytes() const { return log_->log_bytes(); }

std::uint64_t MetaDb::dead_bytes() const { return log_->dead_bytes(); }

Status MetaDb::compact() { return log_->compact(); }

Status MetaDb::sync() { return log_->sync(); }

}  // namespace tiera
