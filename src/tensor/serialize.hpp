// Binary (de)serialization for tensors and named tensor maps.
//
// Used to persist trained SNN weights and crafted datasets between runs and
// across shard processes (scenario/store.hpp keys whole files by content;
// this layer owns the per-record layout). The format is a tiny tagged
// little-endian container — stable across runs on the same platform, which is
// all a reproduction harness needs — with a versioned magic header and
// validated shapes, so a truncated or garbage stream fails with an error
// naming the field and byte offset instead of allocating absurd tensors
// (the same Reader idiom as data/event_io.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "tensor/tensor.hpp"

namespace axsnn {

/// Format version shared by tensor and tensor-map records. Bump on any
/// layout change; readers reject other versions explicitly.
inline constexpr std::uint32_t kSerializeVersion = 2;

/// Bytes between the read position of `is` and its end, or nullopt when the
/// stream cannot tell (it is not seekable, e.g. a pipe). Leaves the read
/// position where it was. Readers check a header's count against this
/// before sizing a buffer from it.
std::optional<std::uint64_t> BytesLeft(std::istream& is);

/// Writes a single tensor: magic, version, rank, dims, raw float payload.
void WriteTensor(std::ostream& os, const Tensor& t);

/// Reads a tensor written by WriteTensor. Throws std::runtime_error naming
/// the offending field and byte offset on a malformed or truncated stream
/// (bad magic, unsupported version, rank > 16, negative dims, implausible
/// element counts, short payload).
Tensor ReadTensor(std::istream& is);

/// Writes a name -> tensor map (e.g. a network state dict) under its own
/// magic, so a map stream can never be misread as a bare tensor.
void WriteTensorMap(std::ostream& os, const std::map<std::string, Tensor>& m);

/// Reads a map written by WriteTensorMap; same validation guarantees as
/// ReadTensor.
std::map<std::string, Tensor> ReadTensorMap(std::istream& is);

/// File-based conveniences; throw std::runtime_error when the file cannot be
/// opened.
void SaveTensorMap(const std::string& path,
                   const std::map<std::string, Tensor>& m);
std::map<std::string, Tensor> LoadTensorMap(const std::string& path);

}  // namespace axsnn
