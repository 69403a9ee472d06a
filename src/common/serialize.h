/**
 * @file
 * Minimal binary serialization used for model checkpointing (Sec. 4.4 notes
 * that frequent checkpointing of very large models is required in
 * production; Check-N-Run [9]).
 *
 * The format is little-endian, length-prefixed, with a magic/version header
 * validated on load.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace neo {

/** Append-only binary writer backed by an in-memory buffer. */
class BinaryWriter
{
  public:
    BinaryWriter() = default;

    /** Write into `reuse`, emptied first: its capacity is kept, so a
     *  caller that hands back the same buffer every time allocates once. */
    explicit BinaryWriter(std::vector<uint8_t> reuse)
        : buffer_(std::move(reuse))
    {
        buffer_.clear();
    }

    /** Write a POD scalar. */
    template <typename T>
    void
    Write(const T& value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* p = reinterpret_cast<const uint8_t*>(&value);
        buffer_.insert(buffer_.end(), p, p + sizeof(T));
    }

    /**
     * Append `n` zeroed bytes for the caller to fill in place (no length
     * prefix). The pointer is valid until the next write.
     */
    uint8_t*
    Extend(size_t n)
    {
        const size_t offset = buffer_.size();
        buffer_.resize(offset + n);
        return buffer_.data() + offset;
    }

    /** Write a length-prefixed string. */
    void WriteString(const std::string& s);

    /** Write a length-prefixed vector of POD elements (any allocator). */
    template <typename T, typename Alloc = std::allocator<T>>
    void
    WriteVector(const std::vector<T, Alloc>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Write<uint64_t>(v.size());
        const auto* p = reinterpret_cast<const uint8_t*>(v.data());
        buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(T));
    }

    /** Pre-size the buffer (bulk writers like the checkpoint streams). */
    void Reserve(size_t bytes) { buffer_.reserve(bytes); }

    const std::vector<uint8_t>& buffer() const { return buffer_; }

    /** Move the buffer out (no copy); the writer is left empty. */
    std::vector<uint8_t> Take() { return std::move(buffer_); }

    /** Flush the buffer to a file; fatal on I/O failure. */
    void SaveToFile(const std::string& path) const;

  private:
    std::vector<uint8_t> buffer_;
};

/**
 * A length-prefixed POD vector read in place: `bytes` points into the
 * reader's buffer, which need not be aligned for T, so elements are
 * copied out (never dereferenced through a T*).
 */
template <typename T>
struct VectorView {
    uint64_t size = 0;
    const uint8_t* bytes = nullptr;

    /** Copy elements [first, first + count) to `out`. */
    void
    CopyTo(size_t first, size_t count, T* out) const
    {
        if (count > 0) {
            std::memcpy(out, bytes + first * sizeof(T), count * sizeof(T));
        }
    }

    T
    operator[](size_t i) const
    {
        T value;
        CopyTo(i, 1, &value);
        return value;
    }
};

/**
 * Sequential binary reader over a byte buffer, either owned or borrowed.
 * Every read is bounds-checked: truncated or corrupt input throws
 * std::runtime_error, whichever way the bytes are held.
 */
class BinaryReader
{
  public:
    /** Read bytes the reader owns. */
    explicit BinaryReader(std::vector<uint8_t> buffer)
        : owned_(std::move(buffer)), data_(owned_) {}

    /** Read borrowed bytes, which must outlive the reader. */
    explicit BinaryReader(std::span<const uint8_t> borrowed)
        : data_(borrowed) {}

    // A copy would keep viewing the source's owned bytes.
    BinaryReader(const BinaryReader&) = delete;
    BinaryReader& operator=(const BinaryReader&) = delete;
    // Moving a vector keeps its heap buffer, so data_ stays valid.
    BinaryReader(BinaryReader&&) = default;
    BinaryReader& operator=(BinaryReader&&) = default;

    /** Load an entire file into a reader; fatal on I/O failure. */
    static BinaryReader LoadFromFile(const std::string& path);

    /** Read a POD scalar; fatal on truncated input. */
    template <typename T>
    T
    Read()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        ReadBytes(reinterpret_cast<uint8_t*>(&value), sizeof(T));
        return value;
    }

    /** Read a length-prefixed string. */
    std::string ReadString();

    /**
     * Read a length-prefixed vector of POD elements. The allocator
     * parameter lets aligned-storage owners (Matrix, EmbeddingTable)
     * deserialize straight into cache-line-aligned buffers.
     */
    template <typename T, typename Alloc = std::allocator<T>>
    std::vector<T, Alloc>
    ReadVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const uint64_t n = Read<uint64_t>();
        // Validate the untrusted length prefix BEFORE allocating: a
        // corrupt prefix must fail like any other truncation, not turn
        // into a huge allocation or size_t overflow in n * sizeof(T).
        RequireRemaining(n, sizeof(T));
        std::vector<T, Alloc> v(n);
        ReadBytes(reinterpret_cast<uint8_t*>(v.data()), n * sizeof(T));
        return v;
    }

    /**
     * Read a length-prefixed vector of POD elements in place, without
     * copying it: the view borrows this reader's bytes (valid while
     * they are). Same length validation as ReadVector.
     */
    template <typename T>
    VectorView<T>
    ViewVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        VectorView<T> view;
        view.size = Read<uint64_t>();
        RequireRemaining(view.size, sizeof(T));
        view.bytes = data_.data() + pos_;
        pos_ += view.size * sizeof(T);
        return view;
    }

    /** True once all bytes have been consumed. */
    bool AtEnd() const { return pos_ == data_.size(); }

  private:
    void ReadBytes(uint8_t* dst, size_t n);

    /** Throw unless `count` elements of `elem_size` bytes remain. */
    void RequireRemaining(uint64_t count, size_t elem_size) const;

    /** Backing store when the reader owns its bytes (else empty). */
    std::vector<uint8_t> owned_;
    /** The bytes being read: owned_ or a borrowed buffer. */
    std::span<const uint8_t> data_;
    size_t pos_ = 0;
};

}  // namespace neo
