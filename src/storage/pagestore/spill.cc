#include "storage/pagestore/spill.h"

#include "common/trace.h"

namespace cleanm {

Result<std::vector<PageSpan>> SpillContext::SpillRows(
    const std::vector<Row>& rows) {
  TraceScope spill_span("io", "spill_write");
  spill_span.SetRowsIn(rows.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ == nullptr) {
    CLEANM_ASSIGN_OR_RETURN(store_,
                            SingleFileStore::CreateTemp(spill_dir_, "spill",
                                                        page_bytes_));
  }
  // One row chunk per page: each chunk takes rows until it fills the
  // page's payload (the last row may overflow it into the next slot).
  const size_t target = store_->page_bytes() - sizeof(PageHeader);
  std::vector<PageSpan> spans;
  for (size_t begin = 0; begin < rows.size();) {
    std::string chunk;
    const size_t n = EncodeRowChunk(rows.data() + begin, rows.size() - begin, &chunk,
                                    target);
    CLEANM_ASSIGN_OR_RETURN(uint64_t page_id, store_->AppendPage(chunk));
    spans.push_back(PageSpan{page_id, static_cast<uint32_t>(n)});
    bytes_spilled_.fetch_add(chunk.size());
    begin += n;
  }
  return spans;
}

Status SpillContext::ReadBack(const std::vector<PageSpan>& chunks,
                              std::vector<Row>* out) const {
  TraceScope readback_span("io", "spill_readback");
  const SingleFileStore* store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    store = store_.get();
  }
  if (store == nullptr) {
    return chunks.empty() ? Status::OK()
                          : Status::Internal("spill read-back before any spill");
  }
  for (const PageSpan& chunk : chunks) {
    CLEANM_ASSIGN_OR_RETURN(PagePin pin, pool_->Pin(*store, chunk.page_id));
    const size_t before = out->size();
    CLEANM_RETURN_NOT_OK(DecodeRowChunk(*pin, out));
    if (out->size() - before != chunk.rows) {
      return Status::IOError("spill: chunk row count mismatch");
    }
  }
  readback_span.SetRowsOut(out->size());
  return Status::OK();
}

}  // namespace cleanm
