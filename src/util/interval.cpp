#include "util/interval.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace fastmon {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
    return os << '[' << iv.lo << ", " << iv.hi << ')';
}

void IntervalSet::add(Interval iv) {
    if (iv.empty()) return;
    // Locate the first stored interval whose end reaches iv.lo (candidates
    // for merging), then absorb every overlapping/touching interval.
    auto first = std::lower_bound(
        ivals_.begin(), ivals_.end(), iv.lo,
        [](const Interval& a, Time lo) { return a.hi < lo - kTimeEps; });
    auto last = first;
    while (last != ivals_.end() && last->lo <= iv.hi + kTimeEps) {
        iv.lo = std::min(iv.lo, last->lo);
        iv.hi = std::max(iv.hi, last->hi);
        ++last;
    }
    if (first == last) {
        ivals_.insert(first, iv);
    } else {
        *first = iv;
        ivals_.erase(first + 1, last);
    }
}

void IntervalSet::unite(const IntervalSet& other) {
    if (other.ivals_.empty() || &other == this) return;
    if (ivals_.empty()) {
        ivals_ = other.ivals_;
        return;
    }
    // Merge the two sorted disjoint lists by lo in place, from the back
    // (this set's interval first on equal lo, as a forward merge would),
    // then coalesce overlapping/touching neighbours forward.
    std::size_t i = ivals_.size();
    std::size_t j = other.ivals_.size();
    ivals_.resize(i + j);
    for (std::size_t out = ivals_.size(); j > 0;) {
        if (i > 0 && ivals_[i - 1].lo > other.ivals_[j - 1].lo) {
            ivals_[--out] = ivals_[--i];
        } else {
            ivals_[--out] = other.ivals_[--j];
        }
    }
    std::size_t kept = 1;
    for (std::size_t r = 1; r < ivals_.size(); ++r) {
        Interval& back = ivals_[kept - 1];
        if (back.hi >= ivals_[r].lo - kTimeEps) {
            back.hi = std::max(back.hi, ivals_[r].hi);
        } else {
            ivals_[kept++] = ivals_[r];
        }
    }
    ivals_.resize(kept);
}

void IntervalSet::clip(Time lo, Time hi) {
    std::vector<Interval> clipped;
    clipped.reserve(ivals_.size());
    for (Interval iv : ivals_) {
        iv.lo = std::max(iv.lo, lo);
        iv.hi = std::min(iv.hi, hi);
        if (!iv.empty()) clipped.push_back(iv);
    }
    ivals_ = std::move(clipped);
}

void IntervalSet::shift(Time d) {
    for (Interval& iv : ivals_) {
        iv.lo += d;
        iv.hi += d;
    }
}

void IntervalSet::filter_glitches(Time min_width) {
    std::erase_if(ivals_, [min_width](const Interval& iv) {
        return iv.length() < min_width - kTimeEps;
    });
}

Time IntervalSet::measure() const {
    Time total = 0.0;
    for (const Interval& iv : ivals_) total += iv.length();
    return total;
}

bool IntervalSet::contains(Time t) const {
    auto it = std::lower_bound(
        ivals_.begin(), ivals_.end(), t,
        [](const Interval& a, Time v) { return a.hi <= v; });
    return it != ivals_.end() && it->contains(t);
}

bool IntervalSet::intersects(const IntervalSet& other) const {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ivals_.size() && j < other.ivals_.size()) {
        const Interval& a = ivals_[i];
        const Interval& b = other.ivals_[j];
        const Time lo = std::max(a.lo, b.lo);
        const Time hi = std::min(a.hi, b.hi);
        if (hi - lo > kTimeEps) return true;
        if (a.hi < b.hi) {
            ++i;
        } else {
            ++j;
        }
    }
    return false;
}

IntervalSet IntervalSet::united(const IntervalSet& a, const IntervalSet& b) {
    IntervalSet r = a;
    r.unite(b);
    return r;
}

IntervalSet IntervalSet::intersected(const IntervalSet& a, const IntervalSet& b) {
    IntervalSet r;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const Interval& x = a[i];
        const Interval& y = b[j];
        const Time lo = std::max(x.lo, y.lo);
        const Time hi = std::min(x.hi, y.hi);
        if (hi - lo > kTimeEps) r.add(lo, hi);
        if (x.hi < y.hi) {
            ++i;
        } else {
            ++j;
        }
    }
    return r;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& s) {
    os << '{';
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (i > 0) os << ", ";
        os << s[i];
    }
    return os << '}';
}

}  // namespace fastmon
