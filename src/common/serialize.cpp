#include "common/serialize.h"

#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace neo {

void
BinaryWriter::WriteString(const std::string& s)
{
    Write<uint64_t>(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void
BinaryWriter::SaveToFile(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    NEO_REQUIRE(f != nullptr, "cannot open for write: ", path);
    const size_t written =
        std::fwrite(buffer_.data(), 1, buffer_.size(), f);
    std::fclose(f);
    NEO_REQUIRE(written == buffer_.size(), "short write to ", path);
}

BinaryReader
BinaryReader::LoadFromFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    NEO_REQUIRE(f != nullptr, "cannot open for read: ", path);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> buffer(static_cast<size_t>(size));
    const size_t read = std::fread(buffer.data(), 1, buffer.size(), f);
    std::fclose(f);
    NEO_REQUIRE(read == buffer.size(), "short read from ", path);
    return BinaryReader(std::move(buffer));
}

std::string
BinaryReader::ReadString()
{
    const uint64_t n = Read<uint64_t>();
    RequireRemaining(n, 1);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
}

void
BinaryReader::RequireRemaining(uint64_t count, size_t elem_size) const
{
    // Divide instead of multiplying so a hostile 2^60-ish length prefix
    // cannot overflow the byte count and slip past the bounds check.
    const uint64_t remaining = data_.size() - pos_;
    NEO_REQUIRE(count <= remaining / elem_size,
                "truncated or corrupt input: length prefix claims ", count,
                " elements of ", elem_size, " bytes but only ", remaining,
                " bytes remain at offset ", pos_);
}

void
BinaryReader::ReadBytes(uint8_t* dst, size_t n)
{
    NEO_REQUIRE(n <= data_.size() - pos_,
                "truncated input: need ", n, " bytes at offset ", pos_,
                " of ", data_.size());
    // memcpy with a null pointer is undefined even for zero bytes, and
    // an empty vector's data() may be null.
    if (n > 0) {
        std::memcpy(dst, data_.data() + pos_, n);
        pos_ += n;
    }
}

}  // namespace neo
