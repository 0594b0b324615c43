#include "bagcpd/signature/signature_set.h"

#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/common/rng.h"

namespace bagcpd {
namespace {

Signature RandomSignature(Rng* rng, std::size_t k, std::size_t dim) {
  Signature s;
  s.ReserveCenters(k, dim);
  for (std::size_t i = 0; i < k; ++i) {
    Point c(dim);
    for (double& v : c) v = rng->Uniform(-3.0, 3.0);
    s.AddCenter(c, rng->Uniform(0.5, 2.0));
  }
  return s;
}

TEST(SignatureSetTest, RoundTripMatchesVectorOfSignatures) {
  Rng rng(41);
  std::vector<Signature> originals;
  SignatureSet set;
  for (std::size_t i = 0; i < 6; ++i) {
    originals.push_back(RandomSignature(&rng, 2 + i % 3, 3));
    ASSERT_TRUE(set.Append(originals.back()).ok());
  }
  ASSERT_EQ(set.size(), originals.size());
  EXPECT_EQ(set.dim(), 3u);

  // Views alias the shared buffers and match the originals bitwise.
  for (std::size_t i = 0; i < set.size(); ++i) {
    const SignatureView v = set.view(i);
    ASSERT_EQ(v.size(), originals[i].size());
    EXPECT_EQ(v.weights(), originals[i].weights());
    for (std::size_t k = 0; k < v.size(); ++k) {
      for (std::size_t j = 0; j < v.dim(); ++j) {
        EXPECT_EQ(v.center(k)[j], originals[i].center(k)[j]);
      }
    }
  }

  // And copying a member back out to an owning signature round-trips
  // exactly.
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set.view(i).ToSignature().packed(), originals[i].packed());
  }
}

TEST(SignatureSetTest, StorageIsShared) {
  Rng rng(7);
  SignatureSet set;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(set.Append(RandomSignature(&rng, 3, 2)).ok());
  }
  EXPECT_EQ(set.total_centers(), 12u);
  EXPECT_EQ(set.center_data().size(), 12u * 2u);
  EXPECT_EQ(set.weight_data().size(), 12u);
  // Consecutive members are adjacent in the one shared buffer.
  EXPECT_EQ(set.view(1).centers_data(), set.center_data().data() + 3 * 2);
  EXPECT_EQ(set.view(1).weights_data(), set.weight_data().data() + 3);
}

TEST(SignatureSetTest, RejectsEmptySignature) {
  SignatureSet set;
  EXPECT_FALSE(set.Append(SignatureView()).ok());
  EXPECT_EQ(set.size(), 0u);
}

TEST(SignatureSetTest, RejectsDimensionMismatch) {
  Rng rng(13);
  SignatureSet set;
  ASSERT_TRUE(set.Append(RandomSignature(&rng, 2, 3)).ok());
  const Signature wrong_dim = RandomSignature(&rng, 2, 4);
  EXPECT_FALSE(set.Append(wrong_dim).ok());
  // A failed append leaves the set untouched.
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.total_centers(), 2u);
}

TEST(SignatureSetTest, RejectsNonPositiveWeight) {
  SignatureSet set;
  Signature bad = Signature::FromFlat({1.0, 2.0}, 1, {1.0, 0.0});
  EXPECT_FALSE(set.Append(bad).ok());
}

TEST(SignatureSetTest, AppendUncheckedDefersValidationToValidate) {
  // The unchecked path stores invalid members for a later recoverable
  // Validate() report (WeightedSignatureSet's historical contract); only a
  // dimension mismatch is rejected because the layout cannot hold it.
  SignatureSet set;
  Signature bad_weight = Signature::FromFlat({1.0, 2.0}, 1, {1.0, 0.0});
  ASSERT_TRUE(set.AppendUnchecked(bad_weight).ok());
  ASSERT_TRUE(set.AppendUnchecked(SignatureView()).ok());  // Empty member.
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.view(0).Validate().ok());
  EXPECT_FALSE(set.view(1).Validate().ok());
  Signature wrong_dim = Signature::FromFlat({1.0, 2.0}, 2, {1.0});
  EXPECT_FALSE(set.AppendUnchecked(wrong_dim).ok());
}

TEST(SignatureSetTest, MixedDimensionGatherFailsWithStatus) {
  // Gathering a 1-d and a 2-d signature into one set reports a Status from
  // either append (the shared buffers cannot hold both) instead of
  // aborting, and keeps the members gathered so far.
  SignatureSet set;
  ASSERT_TRUE(set.Append(Signature::FromCenters({{0.0}}, {1.0})).ok());
  const Signature wider = Signature::FromCenters({{1.0, 2.0}}, {1.0});
  EXPECT_FALSE(set.Append(wider).ok());
  EXPECT_FALSE(set.AppendUnchecked(wider).ok());
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.dim(), 1u);
}

TEST(SignatureSetTest, MovedFromSetIsEmptyAndReusable) {
  Rng rng(55);
  SignatureSet set;
  ASSERT_TRUE(set.Append(RandomSignature(&rng, 3, 2)).ok());
  SignatureSet stolen = std::move(set);
  EXPECT_EQ(stolen.size(), 1u);
  // The moved-from set must be a valid empty set: size() does not
  // underflow, and it accepts new members of any dimension.
  EXPECT_EQ(set.size(), 0u);       // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(set.empty());        // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(set.total_centers(), 0u);
  ASSERT_TRUE(set.Append(RandomSignature(&rng, 2, 5)).ok());
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.dim(), 5u);
}

TEST(SignatureRingTest, SlidesWithoutReallocationInSteadyState) {
  Rng rng(17);
  SignatureRing ring(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ring.PushBack(RandomSignature(&rng, 3, 2));
  }
  ASSERT_TRUE(ring.full());
  // Record slot addresses; steady-state sliding must reuse them in place.
  const double* slot0 = ring.view(0).centers_data();
  for (int round = 0; round < 20; ++round) {
    ring.PopFront();
    ring.PushBack(RandomSignature(&rng, 3, 2));
  }
  EXPECT_EQ(ring.size(), 4u);
  bool found = false;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring.view(i).centers_data() == slot0) found = true;
  }
  EXPECT_TRUE(found) << "ring stopped reusing its slots";
}

TEST(SignatureRingTest, PreservesFifoOrderAndValues) {
  Rng rng(5);
  SignatureRing ring(3);
  std::vector<Signature> reference;
  for (std::size_t i = 0; i < 3; ++i) {
    reference.push_back(RandomSignature(&rng, 2 + i, 2));
    ring.PushBack(reference.back());
  }
  // Slide twice.
  for (int i = 0; i < 2; ++i) {
    ring.PopFront();
    reference.erase(reference.begin());
    reference.push_back(RandomSignature(&rng, 2, 2));
    ring.PushBack(reference.back());
  }
  ASSERT_EQ(ring.size(), reference.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const SignatureView v = ring.view(i);
    ASSERT_EQ(v.size(), reference[i].size());
    EXPECT_EQ(v.weights(), reference[i].weights());
    for (std::size_t k = 0; k < v.size(); ++k) {
      for (std::size_t j = 0; j < v.dim(); ++j) {
        EXPECT_EQ(v.center(k)[j], reference[i].center(k)[j]);
      }
    }
  }
}

TEST(SignatureRingTest, GrowsStrideWhenLargerSignaturesArrive) {
  Rng rng(29);
  SignatureRing ring(3);
  ring.PushBack(RandomSignature(&rng, 1, 2));
  ring.PushBack(RandomSignature(&rng, 2, 2));
  const Signature big = RandomSignature(&rng, 16, 2);
  ring.PushBack(big);  // Forces a re-layout.
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.view(0).size(), 1u);
  EXPECT_EQ(ring.view(1).size(), 2u);
  const SignatureView grown = ring.view(2);
  ASSERT_EQ(grown.size(), 16u);
  EXPECT_EQ(grown.weights(), big.weights());
}

TEST(SignatureRingTest, BorrowedSlotCommitMatchesPushBackBitwise) {
  Rng rng(61);
  const Signature sig = RandomSignature(&rng, 5, 3);

  SignatureRing pushed(4);
  pushed.PushBack(sig);

  // Assemble the same signature straight into a borrowed slot (the detector
  // push path): centers in [0, k*dim), weights compacted to [k*dim, k*dim+k).
  SignatureRing borrowed(4);
  double* slot = borrowed.BorrowSlot(sig.size(), sig.dim());
  SignatureAssembler assembler(slot, sig.size(), sig.dim());
  for (std::size_t i = 0; i < sig.size(); ++i) {
    assembler.Add(sig.center(i), sig.weight(i));
  }
  const std::size_t k = assembler.FinishInPlace();
  ASSERT_EQ(k, sig.size());
  borrowed.CommitBorrowed(k);

  ASSERT_EQ(borrowed.size(), 1u);
  const SignatureView a = pushed.view(0);
  const SignatureView b = borrowed.view(0);
  ASSERT_EQ(b.size(), a.size());
  EXPECT_EQ(b.weights(), a.weights());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.dim(); ++j) {
      EXPECT_EQ(b.center(i)[j], a.center(i)[j]);
    }
  }
}

TEST(SignatureRingTest, BorrowedSlotCompactsWeightsWhenFewerCentersSurvive) {
  // The assembler stages weights at max_count*dim; FinishInPlace must move
  // them down to k*dim when only k < max_count centers were added.
  SignatureRing ring(2);
  const std::size_t max_k = 6, dim = 2, k = 2;
  double* slot = ring.BorrowSlot(max_k, dim);
  SignatureAssembler assembler(slot, max_k, dim);
  assembler.Add(Point{1.0, 2.0}, 0.25);
  assembler.Add(Point{3.0, 4.0}, 0.75);
  ASSERT_EQ(assembler.FinishInPlace(), k);
  ring.CommitBorrowed(k);

  const SignatureView v = ring.view(0);
  ASSERT_EQ(v.size(), k);
  EXPECT_EQ(v.center(0)[0], 1.0);
  EXPECT_EQ(v.center(1)[1], 4.0);
  ASSERT_EQ(v.weights().size(), k);
  EXPECT_EQ(v.weights()[0], 0.25);
  EXPECT_EQ(v.weights()[1], 0.75);
}

TEST(SignatureRingTest, CancelBorrowLeavesRingUntouched) {
  Rng rng(83);
  SignatureRing ring(3);
  const Signature first = RandomSignature(&rng, 3, 2);
  ring.PushBack(first);

  double* slot = ring.BorrowSlot(3, 2);
  slot[0] = 99.0;  // Scribble; a canceled borrow must never become visible.
  ring.CancelBorrow();

  ASSERT_EQ(ring.size(), 1u);
  const SignatureView v = ring.view(0);
  ASSERT_EQ(v.size(), first.size());
  EXPECT_EQ(v.weights(), first.weights());
  for (std::size_t j = 0; j < v.dim(); ++j) {
    EXPECT_EQ(v.center(0)[j], first.center(0)[j]);
  }

  // The ring is immediately borrowable/pushable again.
  double* again = ring.BorrowSlot(2, 2);
  SignatureAssembler assembler(again, 2, 2);
  assembler.Add(Point{5.0, 6.0}, 1.0);
  ring.CommitBorrowed(assembler.FinishInPlace());
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.view(1).weights()[0], 1.0);
}

TEST(SignatureRingTest, BorrowGrowsStrideAndPreservesExistingSlots) {
  Rng rng(97);
  SignatureRing ring(3);
  std::vector<Signature> reference;
  for (std::size_t i = 0; i < 2; ++i) {
    reference.push_back(RandomSignature(&rng, 2, 2));
    ring.PushBack(reference.back());
  }
  // Borrowing with a much larger max_k forces a stride re-layout while the
  // existing entries must survive bitwise.
  double* slot = ring.BorrowSlot(16, 2);
  SignatureAssembler assembler(slot, 16, 2);
  const Signature big = RandomSignature(&rng, 16, 2);
  for (std::size_t i = 0; i < big.size(); ++i) {
    assembler.Add(big.center(i), big.weight(i));
  }
  ring.CommitBorrowed(assembler.FinishInPlace());

  ASSERT_EQ(ring.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    const SignatureView v = ring.view(i);
    ASSERT_EQ(v.size(), reference[i].size());
    EXPECT_EQ(v.weights(), reference[i].weights());
    for (std::size_t c = 0; c < v.size(); ++c) {
      for (std::size_t j = 0; j < v.dim(); ++j) {
        EXPECT_EQ(v.center(c)[j], reference[i].center(c)[j]);
      }
    }
  }
  EXPECT_EQ(ring.view(2).weights(), big.weights());
}

}  // namespace
}  // namespace bagcpd
