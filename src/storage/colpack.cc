#include "storage/colpack.h"

#include <cstring>
#include <fstream>
#include <unordered_map>

#include "storage/pagestore/row_codec.h"

namespace cleanm {

namespace {

constexpr char kMagic[4] = {'C', 'P', 'K', '1'};

// Column encodings.
constexpr uint8_t kEncNullable = 0x80;  // OR'd flag: null bitmap present
constexpr uint8_t kEncInt = 1;
constexpr uint8_t kEncDouble = 2;
constexpr uint8_t kEncBool = 3;
constexpr uint8_t kEncDictString = 4;
constexpr uint8_t kEncNested = 5;  // u64 byte length + row_codec values

template <typename T>
void PutPod(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool GetPod(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(is);
}

void PutString(std::ostream& os, const std::string& s) {
  PutPod<uint32_t>(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Bytes between the read position and the end of the stream.
uint64_t RemainingBytes(std::istream& is) {
  const auto here = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<uint64_t>(end - here);
}

bool GetString(std::istream& is, std::string* s) {
  uint32_t len;
  if (!GetPod(is, &len)) return false;
  s->resize(len);
  is.read(s->data(), len);
  return static_cast<bool>(is);
}

/// Chooses the physical encoding for a column by inspecting its values.
uint8_t PickEncoding(const Dataset& d, size_t col, bool* nullable) {
  bool has_null = false;
  ValueType seen = ValueType::kNull;
  bool mixed = false;
  for (const auto& r : d.rows()) {
    const Value& v = r[col];
    if (v.is_null()) {
      has_null = true;
      continue;
    }
    if (seen == ValueType::kNull) {
      seen = v.type();
    } else if (seen != v.type()) {
      mixed = true;
    }
  }
  *nullable = has_null;
  if (mixed) return kEncNested;
  switch (seen) {
    case ValueType::kInt: return kEncInt;
    case ValueType::kDouble: return kEncDouble;
    case ValueType::kBool: return kEncBool;
    case ValueType::kString: return kEncDictString;
    case ValueType::kNull: return kEncNested;  // all-null column
    default: return kEncNested;
  }
}

}  // namespace

Status WriteColpack(const Dataset& dataset, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IOError("cannot create '" + path + "'");
  os.write(kMagic, 4);
  PutPod<uint32_t>(os, static_cast<uint32_t>(dataset.schema().num_fields()));
  PutPod<uint64_t>(os, dataset.num_rows());

  const size_t nrows = dataset.num_rows();
  for (size_t c = 0; c < dataset.schema().num_fields(); c++) {
    PutString(os, dataset.schema().field(c).name);
    bool nullable = false;
    const uint8_t enc = PickEncoding(dataset, c, &nullable);
    PutPod<uint8_t>(os, enc | (nullable ? kEncNullable : 0));
    if (nullable) {
      // Packed null bitmap (1 = present).
      for (size_t i = 0; i < nrows; i += 8) {
        uint8_t byte = 0;
        for (size_t b = 0; b < 8 && i + b < nrows; b++) {
          if (!dataset.row(i + b)[c].is_null()) byte |= (1u << b);
        }
        PutPod<uint8_t>(os, byte);
      }
    }
    switch (enc) {
      case kEncInt:
        for (size_t i = 0; i < nrows; i++) {
          const Value& v = dataset.row(i)[c];
          PutPod<int64_t>(os, v.is_null() ? 0 : v.AsInt());
        }
        break;
      case kEncDouble:
        for (size_t i = 0; i < nrows; i++) {
          const Value& v = dataset.row(i)[c];
          PutPod<double>(os, v.is_null() ? 0.0 : v.AsDouble());
        }
        break;
      case kEncBool:
        for (size_t i = 0; i < nrows; i++) {
          const Value& v = dataset.row(i)[c];
          PutPod<uint8_t>(os, (!v.is_null() && v.AsBool()) ? 1 : 0);
        }
        break;
      case kEncDictString: {
        // Build the dictionary in first-seen order.
        std::unordered_map<std::string, uint32_t> dict;
        std::vector<const std::string*> entries;
        std::vector<uint32_t> codes(nrows, 0);
        for (size_t i = 0; i < nrows; i++) {
          const Value& v = dataset.row(i)[c];
          if (v.is_null()) continue;
          auto [it, inserted] = dict.emplace(v.AsString(), static_cast<uint32_t>(entries.size()));
          if (inserted) entries.push_back(&it->first);
          codes[i] = it->second;
        }
        PutPod<uint32_t>(os, static_cast<uint32_t>(entries.size()));
        for (const auto* e : entries) PutString(os, *e);
        for (uint32_t code : codes) PutPod<uint32_t>(os, code);
        break;
      }
      case kEncNested: {
        std::string encoded;
        for (size_t i = 0; i < nrows; i++) EncodeValue(dataset.row(i)[c], &encoded);
        PutPod<uint64_t>(os, encoded.size());
        os.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
        break;
      }
      default:
        return Status::Internal("unknown colpack encoding");
    }
  }
  if (!os) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Dataset> ReadColpack(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("cannot open '" + path + "'");
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError("'" + path + "' is not a colpack file");
  }
  uint32_t ncols;
  uint64_t nrows;
  if (!GetPod(is, &ncols) || !GetPod(is, &nrows)) {
    return Status::IOError("truncated colpack header");
  }

  std::vector<Field> fields;
  std::vector<std::vector<Value>> columns(ncols);
  for (uint32_t c = 0; c < ncols; c++) {
    std::string name;
    if (!GetString(is, &name)) return Status::IOError("truncated column name");
    uint8_t enc_byte;
    if (!GetPod(is, &enc_byte)) return Status::IOError("truncated column encoding");
    const bool nullable = (enc_byte & kEncNullable) != 0;
    const uint8_t enc = enc_byte & ~kEncNullable;

    std::vector<bool> present(nrows, true);
    if (nullable) {
      for (uint64_t i = 0; i < nrows; i += 8) {
        uint8_t byte;
        if (!GetPod(is, &byte)) return Status::IOError("truncated null bitmap");
        for (uint64_t b = 0; b < 8 && i + b < nrows; b++) {
          present[i + b] = (byte >> b) & 1;
        }
      }
    }

    auto& col = columns[c];
    col.reserve(nrows);
    ValueType ftype = ValueType::kString;
    switch (enc) {
      case kEncInt: {
        ftype = ValueType::kInt;
        for (uint64_t i = 0; i < nrows; i++) {
          int64_t v;
          if (!GetPod(is, &v)) return Status::IOError("truncated int column");
          col.push_back(present[i] ? Value(v) : Value::Null());
        }
        break;
      }
      case kEncDouble: {
        ftype = ValueType::kDouble;
        for (uint64_t i = 0; i < nrows; i++) {
          double v;
          if (!GetPod(is, &v)) return Status::IOError("truncated double column");
          col.push_back(present[i] ? Value(v) : Value::Null());
        }
        break;
      }
      case kEncBool: {
        ftype = ValueType::kBool;
        for (uint64_t i = 0; i < nrows; i++) {
          uint8_t v;
          if (!GetPod(is, &v)) return Status::IOError("truncated bool column");
          col.push_back(present[i] ? Value(v != 0) : Value::Null());
        }
        break;
      }
      case kEncDictString: {
        ftype = ValueType::kString;
        uint32_t dict_size;
        if (!GetPod(is, &dict_size)) return Status::IOError("truncated dictionary");
        std::vector<std::string> dict(dict_size);
        for (auto& e : dict) {
          if (!GetString(is, &e)) return Status::IOError("truncated dictionary entry");
        }
        for (uint64_t i = 0; i < nrows; i++) {
          uint32_t code;
          if (!GetPod(is, &code)) return Status::IOError("truncated string codes");
          if (!present[i]) {
            col.push_back(Value::Null());
          } else {
            if (code >= dict.size()) return Status::IOError("string code out of range");
            col.push_back(Value(dict[code]));
          }
        }
        break;
      }
      case kEncNested: {
        uint64_t len;
        if (!GetPod(is, &len) || len > RemainingBytes(is)) {
          return Status::IOError("truncated nested column");
        }
        std::string encoded(len, '\0');
        is.read(encoded.data(), static_cast<std::streamsize>(len));
        size_t pos = 0;
        for (uint64_t i = 0; i < nrows; i++) {
          CLEANM_ASSIGN_OR_RETURN(Value v, DecodeValue(encoded, &pos));
          if (!v.is_null()) ftype = v.type();
          col.push_back(present[i] ? std::move(v) : Value::Null());
        }
        if (pos != encoded.size()) return Status::IOError("bad nested column length");
        break;
      }
      default:
        return Status::IOError("unknown colpack encoding byte");
    }
    fields.push_back({std::move(name), ftype});
  }

  Dataset out(Schema{std::move(fields)});
  for (uint64_t i = 0; i < nrows; i++) {
    Row row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; c++) row.push_back(std::move(columns[c][i]));
    out.Append(std::move(row));
  }
  return out;
}

}  // namespace cleanm
