// "colpack": a binary columnar on-disk format with dictionary encoding.
//
// Stand-in for Parquet in the evaluation (Figures 6b, 7): column-major
// layout, per-column dictionary encoding for strings (the compression that
// makes the Parquet runs faster/smaller in the paper), and support for
// nested list/struct values via a row-encoded auxiliary column section.
//
// Layout (little-endian):
//   magic "CPK1" | u32 ncols | u64 nrows
//   per column: u32 name_len | name | u8 type | encoding payload
// Scalar columns: type-specific arrays; strings are dictionary-coded
// (u32 dict_size, dict entries, then u32 codes). Nested and mixed-type
// columns are a u64 byte length, then each row's value in the page
// store's row codec (storage/pagestore/row_codec.h).
#pragma once

#include <string>

#include "common/status.h"
#include "storage/dataset.h"

namespace cleanm {

/// Writes the dataset column-major with dictionary-coded strings.
Status WriteColpack(const Dataset& dataset, const std::string& path);

/// Reads a colpack file back into a Dataset.
Result<Dataset> ReadColpack(const std::string& path);

}  // namespace cleanm
