// SPDX-License-Identifier: MIT
//
// Golden outcomes of the paper's fault-free protocol (§II-D), recorded from
// the dedicated engine `ScecProtocol` (sim/protocol.{h,cpp}) at commit
// c019fcf, before that engine was deleted in favour of
// FaultTolerantScecProtocol with default options. The tests that read this
// file rebuild the same inputs and require the one remaining engine to
// reproduce every record: decodes bit for bit, byte and operation counters
// exactly, sim times to 1e-12 relative. Values are hex-float literals so
// nothing is lost in printing.
//
// Inputs (tests/test_sim_protocol.cpp MakeProblem unless noted):
//   kSimulateClean*    SimulateScec, MakeProblem(24, 8, 10, 1), a and x
//                      from Xoshiro256StarStar(11), ChaCha20Rng(10) coding.
//   kSimulateStraggly* SimulateScec, MakeProblem(24, 64, 10, 2) with device
//                      j's compute rate set to 1e6·(1 + 0.1·j) flop/s, a and
//                      x from Xoshiro256StarStar(21), ChaCha20Rng(20) coding,
//                      exponential-slowdown stragglers at rate 0.5 (seed 7).
//   kStream*           MakeProblem(14, 5, 6, 10) deployed with
//                      ChaCha20Rng(100); a then 16 query vectors from
//                      Xoshiro256StarStar(101). kStreamDecoded holds all 16
//                      decodes; a fresh protocol streams the first 1, 4 and
//                      16 of them.
//   kSequential*       the same deployment, one protocol, the first 4
//                      queries one after another (decodes: the first 4 of
//                      kStreamDecoded).
//   kFaultFreeRig*     tests/test_fault_tolerance.cpp Rig(16, 5, 8, 39), one
//                      query.
//
// Device records list the participating devices in scheme order. The old
// engine's stream mode left query_downlink_bytes and decode_subtractions at
// 0 (kStream*Run); FaultTolerantScecProtocol::RunQueryStream counts them.

#pragma once

#include <cstddef>
#include <cstdint>

namespace scec::sim::golden {

struct RunRecord {
  double staging_completion_time;
  uint64_t staging_bytes;
  double query_completion_time;
  uint64_t query_uplink_bytes;
  uint64_t query_downlink_bytes;
  uint64_t decode_subtractions;
};

struct DeviceRecord {
  size_t coded_rows;
  uint64_t stored_values;
  uint64_t multiplications;
  uint64_t additions;
  uint64_t values_sent;
  double compute_seconds;
  double response_time;  // absolute sim time of the device's last response
};

inline constexpr RunRecord kSimulateCleanRun = {
    0x1.4492aec005fafp-8, 1920u, 0x1.4258a2350efeap-7, 320u, 240u, 24u};
inline constexpr DeviceRecord kSimulateCleanDevices[] = {
    {6u, 62u, 48u, 42u, 6u, 0x1.b0cded3c79febp-24, 0x1.79ed9a4881928p-7},
    {6u, 62u, 48u, 42u, 6u, 0x1.9d145e1c62823p-21, 0x1.0c912f4655b86p-7},
    {6u, 62u, 48u, 42u, 6u, 0x1.26bb19b9cb71cp-21, 0x1.5a8050c6bd701p-7},
    {6u, 62u, 48u, 42u, 6u, 0x1.aeb28fe35334dp-23, 0x1.e4a1f99511fc2p-7},
    {6u, 62u, 48u, 42u, 6u, 0x1.2ba4a70ec2351p-22, 0x1.400697d71210bp-7},
};
inline constexpr double kSimulateCleanDecoded[] = {
    -0x1.170decd2e5d06p-1, -0x1.f006c3235ed2p-3, -0x1.37487c75a08ep-4,
    -0x1.9810ccd794368p-1, -0x1.00a9d6cdc76dap+1, -0x1.007ce7b4b6c0bp+0,
    0x1.126f708dfc98p-1, -0x1.14e997aa0705ep+0, 0x1.68a108a4ba69cp+0,
    -0x1.10d6f1db8dc04p+0, -0x1.4db31d032c271p+0, 0x1.c539d75d19a62p-1,
    -0x1.8c43cf69f85b8p-1, -0x1.7ae0d7d7c8964p+0, -0x1.493640e82d20ap+0,
    -0x1.0a2bd46c2f838p+1, -0x1.1d82e2c745f69p-2, 0x1.95040c281994p-2,
    0x1.0393b9fd84162p+0, -0x1.8cbc0c862c4eep+0, 0x1.ddef6ab04737p+0,
    0x1.1d0248035ec7dp+0, 0x1.57b477cdcc2b2p+0, 0x1.36da8f4753318p+0,
};
inline constexpr RunRecord kSimulateStragglyRun = {
    0x1.18406e160b3d7p-8, 16384u, 0x1.2527a8e98c094p-7, 2048u, 256u, 24u};
inline constexpr DeviceRecord kSimulateStragglyDevices[] = {
    {8u, 584u, 512u, 504u, 8u, 0x1.52246b5eb914bp-9, 0x1.b147dff491a8p-7},
    {8u, 584u, 512u, 504u, 8u, 0x1.6772d55ca8b1cp-10, 0x1.9e51b901ab304p-7},
    {8u, 584u, 512u, 504u, 8u, 0x1.5eafb1de77aedp-10, 0x1.3f1f092257776p-7},
    {8u, 584u, 512u, 504u, 8u, 0x1.f6bbcd6bcfff5p-11, 0x1.a54bd14fd25ddp-7},
};
inline constexpr double kSimulateStragglyDecoded[] = {
    -0x1.c835e738e1048p+1, -0x1.3ee99c6fc86cep+0, 0x1.7a9423f7531aep+1,
    -0x1.3ccb6e07f1908p+0, -0x1.3fa691ba95cd6p+1, -0x1.13f6946a8de1ep+2,
    0x1.4f26d921b2ac8p+1, -0x1.1b2279e314b75p+1, -0x1.ae5a504c289bcp+0,
    0x1.d8c0fcd2fc6dbp+0, -0x1.9add4414097ap+2, 0x1.06575d25c2a1p-2,
    0x1.d1246c5c3c4a2p+2, -0x1.08a4851ddcc8p-4, 0x1.b97a301b11ba8p+0,
    0x1.f13c1bdd100a1p+1, 0x1.32ab785e25ep+0, 0x1.4fe4109d3e55bp+2,
    0x1.83c3b819b4ea4p+1, -0x1.776bbd685be1p+1, 0x1.6258c65d3821ep+2,
    0x1.a80b61ec8f36dp+0, 0x1.5c9f29873ae55p+2, -0x1.485afebd50de2p+0,
};

inline constexpr double kStreamDecoded[] = {
    -0x1.df2520d996428p-4, -0x1.6718b07207a96p-2, 0x1.ec61fc34b9c4p-1,
    -0x1.74fb2663f960ep-1, -0x1.0c4a9a959c44cp-5, 0x1.e4777c507531ap-1,
    -0x1.40c4f4ff963f1p+0, -0x1.b24d9e317a024p-3, 0x1.40041b2356616p-2,
    -0x1.0eb4d3c9c5d9p-4, -0x1.cb9acfddaab4p-3, 0x1.d334112950889p-1,
    -0x1.144e5e34021fdp-1, -0x1.9b199e305bf35p+0, 0x1.6efadddf83074p-1,
    -0x1.45156204e50a4p-1, 0x1.872c4297a596ap-1, -0x1.99f9c33a623f2p-2,
    -0x1.fe4faaf21b979p-2, 0x1.a0526346c64a7p-1, -0x1.0d9149fcce928p+0,
    0x1.37616ce13698p-7, -0x1.7074566014a3cp-2, -0x1.514983416ec1p-4,
    -0x1.7a8a605508c7fp-1, 0x1.11d37494d81eap+0, -0x1.d85310b72bea9p-1,
    -0x1.399d77229f2d8p+0, -0x1.c5b9b02c822ap-2, -0x1.86171d04b5c7p-3,
    -0x1.e79d87b14ce22p-2, 0x1.200d8cd3cd6cbp+0, -0x1.13cfd1fa3d288p-2,
    -0x1.25eeb7e493231p+0, 0x1.8a26240f390dp-4, -0x1.083c25cf43554p-1,
    0x1.84255d48a6feap-1, -0x1.b2a3ac2a8f10ep-2, -0x1.7e333b4ff709p-1,
    -0x1.90a5b4b85c51p-1, -0x1.cce4033db18bp-1, -0x1.7d8db058620fcp-1,
    0x1.f230e04e6ee18p-3, -0x1.2c5dfa5bbe3dcp-1, 0x1.d2acaed07663bp-1,
    -0x1.5f75feb7cd902p-1, -0x1.b8f4a63cafc7cp-1, 0x1.ea05b8479f986p-1,
    -0x1.42f7bdb760d7ep+0, 0x1.de424313a4398p-3, 0x1.427fa0523bec8p-2,
    0x1.7c99620ee6bdap-2, -0x1.bebe6bd78c804p-1, 0x1.6f95473432f38p+0,
    -0x1.04570f48f7cecp+0, -0x1.e23a542fb5274p+0, -0x1.7de39263e2308p-2,
    0x1.fa665087cc74p-6, -0x1.102259f661a4fp-2, 0x1.87022795aacc4p-2,
    0x1.ffc9d13bea971p-1, 0x1.03106d05244ap-7, 0x1.864b66cceaab4p-1,
    -0x1.120f9d288a73p-3, -0x1.fb777ca38478p-4, -0x1.2aa9857c05fabp-2,
    0x1.033a0ff88001fp+0, -0x1.e57da416fe02cp-1, 0x1.06bbc804eff82p+0,
    0x1.30b69964e389ap+0, 0x1.83ebf0a5e1308p-1, -0x1.d955e5d9f80c6p-1,
    0x1.4b960a4c1a87dp-1, -0x1.0f8bc3b1a8007p-2, -0x1.3489fd6d94058p-1,
    0x1.275352515dc97p+0, -0x1.fdbb8036b09d7p-2, 0x1.1b312fe578344p-1,
    -0x1.a5b4d776fa501p-2, 0x1.5da587839376ap-2, -0x1.0084a82bf93ccp-1,
    0x1.16de335da2922p+0, -0x1.d2506fceba02ep-2, -0x1.3501b672272b4p-1,
    -0x1.afb4072c55102p-1, 0x1.43d55b98943eep+0, -0x1.bf6692d7ffc5ap-1,
    -0x1.49e23cf894304p-4, -0x1.ac30ce9b7001ap-3, -0x1.50ac4c07b573ep+0,
    0x1.6c555eabb72ep-1, 0x1.e412f15406f38p-5, 0x1.7c183bc8028b1p-1,
    0x1.e0e8b2bfd333p-2, 0x1.a29d7ad4a489cp-3, -0x1.2eea62be0ad28p-1,
    0x1.d584bb7c23e75p-2, 0x1.3bbf433dea46p-1, -0x1.91338908e5bbep-1,
    0x1.dba8028e50c84p-4, -0x1.079d8ac6cf62ep-2, -0x1.68b298efe81bcp-3,
    -0x1.512a8e3606821p-1, 0x1.be665c14ec7f8p-4, 0x1.41915ce73d8a2p-1,
    0x1.d5d99e5b87d35p-1, 0x1.ffc8bfac9c858p-1, 0x1.2fac7278965a1p+0,
    0x1.1acc73b769892p-3, 0x1.0f6a588c0ed18p-2, 0x1.1141ff476ceeep-1,
    0x1.b87d2befd1c8p-4, 0x1.1cef205cc65c7p-1, -0x1.5a2d6db94ba4ep-1,
    -0x1.893637f2ec72ap-2, 0x1.34899fea0b147p+0, 0x1.8e8a283f164p-8,
    -0x1.f5f126eef7446p-2, 0x1.c535b8a8de29cp-2, -0x1.cc89c27b932cap-3,
    -0x1.d910be0dac96cp-2, -0x1.2bf8638a0363fp-1, -0x1.cf92f3d2fd8a4p-2,
    -0x1.5e18756bc4d5p-1, -0x1.f8b1cf9ada8bep-2, 0x1.8239afdcbde2ep-2,
    0x1.3d7afdbecaf55p-2, -0x1.c077c6b1bb4c8p+0, 0x1.760801da9aebfp-1,
    0x1.7614eac957d61p-1, 0x1.94df27858243ep-1, 0x1.860b09950b603p+0,
    -0x1.0a321fcc47d6p-5, 0x1.0e5c1282c2d28p-5, -0x1.99a94e622694ap-2,
    -0x1.07a220f15d3bdp-1, 0x1.b226cd98fbc56p-2, -0x1.22d232ee5596p-3,
    0x1.98a82bc242cc4p-3, -0x1.06afa1401d6fp-4, -0x1.9b61e7bb9d12cp-2,
    -0x1.87d049ace1d73p-2, -0x1.bb577889c78d8p-1, 0x1.80fd43ec70aap+0,
    0x1.af7c23f064ef4p-1, -0x1.41db89102be64p-1, 0x1.8f76b840a14b6p+0,
    -0x1.8e0f88242dc6p-5, 0x1.8dc42179cd18p-6, -0x1.7fc8b07488092p-2,
    0x1.85ab821b00744p-1, -0x1.b50386016407dp+0, 0x1.ccb1eea519c69p-1,
    0x1.ae7d5e30e932cp+0, 0x1.97b4e80e78f8fp-5, -0x1.d692eb60e27fep+0,
    0x1.75f13b78988ffp+0, -0x1.00d66233f0d14p-1, -0x1.4dd3d10920488p-3,
    0x1.54ccf7a11a3d4p+1, -0x1.85f45028832eep-1, 0x1.c9f05d31da692p-1,
    0x1.238dd4c82f543p-2, 0x1.5a1cd5cc41fe8p-1, 0x1.2ae240727d84p-3,
    0x1.739a778b877edp+0, 0x1.6ae307143c25p-4, -0x1.489685dbdefd4p+0,
    0x1.db6456975b85p-2, -0x1.75b4e6d1fcbb7p-1, 0x1.4a8983578ef9p-2,
    0x1.62c7129ed1d5p-6, 0x1.6f371b8e7c6c8p-2, 0x1.0f2f8522d854p+0,
    0x1.1a188780f4c8dp-2, 0x1.aceb6226cb5dcp-2, -0x1.46b8632d58b12p-1,
    0x1.091db3edb8b6fp-4, 0x1.00580e1ce0edcp-1, 0x1.5d13ef56f70ap-3,
    0x1.2b9fe4e7a2a48p-1, 0x1.66d3fd94bd916p-1, 0x1.26fba16ed7a28p-4,
    0x1.7022b9e2d2246p+0, -0x1.98a3139904287p-1, -0x1.e2556ab1421fap-2,
    -0x1.d4f7a1bf9be1p-2, -0x1.3c6c7887d5edcp+0, 0x1.dd4d5f60927dep-2,
    0x1.c7de30cf146ccp-4, -0x1.6c0728f2399f4p-3, 0x1.882424d4c4824p-2,
    -0x1.443af8ca66e3p-4, -0x1.89ba1ef1159b8p-4, 0x1.c4179b7a20cd8p-3,
    0x1.d31b8ae4a99c1p-1, 0x1.ac5888b907994p-2, -0x1.46c23cddbb49ep+0,
    -0x1.6961801955c58p-2, 0x1.03e59529d9f4bp+1, 0x1.275971ad87d06p-1,
    -0x1.2006aafe48ff9p-1, 0x1.e5a772ac01edcp-2, -0x1.7830765a5beeap-1,
    -0x1.938eb7ddd48ap-2, -0x1.48ac9aa98ebd7p+0, -0x1.92070da6c1622p-2,
    -0x1.64f40d3083c5fp+0, -0x1.5d77fa8d563dcp-1, 0x1.9d2b728ad9148p-3,
    -0x1.21a79c8928638p-1, 0x1.fdac3a1eca171p+0, 0x1.13c4b202d4e06p-3,
    -0x1.1cb0593e27595p+1, -0x1.4656057c6a396p-1, -0x1.80d485ff78a3cp-3,
    -0x1.6900e8989591cp-1, 0x1.545944b4e0e4ep-2, 0x1.0bf9232af7d1ap-1,
    0x1.18a3ab1a0ed5p+0, 0x1.9055dfaf57ec8p-3, 0x1.425b5ee87b7b6p+0,
    0x1.9ec1204c2f844p-2, -0x1.b3063d5ccc2cp-2,
};
inline constexpr double kStream1CompletionTimes[] = {
    0x1.b79a4259a727dp-8,
};
inline constexpr double kStream1Makespan = 0x1.b79a4259a727dp-8;
inline constexpr RunRecord kStream1Run = {
    0x1.b9c669f9293aep-9, 840u, 0x0p+0, 120u, 0u, 0u};
inline constexpr double kStream4CompletionTimes[] = {
    0x1.b79a4259a727dp-8, 0x1.b8c8d14e9eb55p-8, 0x1.b9f7604396429p-8,
    0x1.bb25ef388dd01p-8,
};
inline constexpr double kStream4Makespan = 0x1.bb25ef388dd01p-8;
inline constexpr RunRecord kStream4Run = {
    0x1.b9c669f9293aep-9, 840u, 0x0p+0, 480u, 0u, 0u};
inline constexpr double kStream16CompletionTimes[] = {
    0x1.b79a4259a727dp-8, 0x1.b8c8d14e9eb55p-8, 0x1.b9f7604396429p-8,
    0x1.bb25ef388dd01p-8, 0x1.bc547e2d855d5p-8, 0x1.bd830d227ceadp-8,
    0x1.beb19c1774781p-8, 0x1.bfe02b0c6c059p-8, 0x1.c10eba016392dp-8,
    0x1.c23d48f65b205p-8, 0x1.c36bd7eb52ad9p-8, 0x1.c49a66e04a3b1p-8,
    0x1.c5c8f5d541c85p-8, 0x1.c6f784ca3955dp-8, 0x1.c82613bf30e31p-8,
    0x1.c954a2b428709p-8,
};
inline constexpr double kStream16Makespan = 0x1.c954a2b428709p-8;
inline constexpr RunRecord kStream16Run = {
    0x1.b9c669f9293aep-9, 840u, 0x0p+0, 1920u, 0u, 0u};

inline constexpr double kSequentialCompletionTimes[] = {
    0x1.b79a4259a727dp-8, 0x1.b79a4259a728p-8, 0x1.b79a4259a727cp-8,
    0x1.b79a4259a727cp-8,
};
inline constexpr RunRecord kSequentialRun = {
    0x1.b9c669f9293aep-9, 840u, 0x1.b79a4259a727cp-8, 480u, 672u, 56u};
inline constexpr DeviceRecord kSequentialDevices[] = {
    {7u, 47u, 140u, 112u, 28u, 0x1.3c338da7fa1afp-22, 0x1.eed30f98cc4f3p-6},
    {7u, 47u, 140u, 112u, 28u, 0x1.15ba54f7980d1p-22, 0x1.ae90a8f61563p-6},
    {7u, 47u, 140u, 112u, 28u, 0x1.6322ab52c1048p-22, 0x1.bd2d2bb6c99fap-6},
};

inline constexpr RunRecord kFaultFreeRigRun = {
    0x1.0cdad9d5c9cb9p-10, 960u, 0x1.073e73ea43bc4p-9, 120u, 192u, 16u};
inline constexpr DeviceRecord kFaultFreeRigDevices[] = {
    {8u, 53u, 40u, 32u, 8u, 0x1.353cd652bb167p-24, 0x1.8dabe0d528a21p-9},
    {8u, 53u, 40u, 32u, 8u, 0x1.353cd652bb167p-24, 0x1.8dabe0d528a21p-9},
    {8u, 53u, 40u, 32u, 8u, 0x1.353cd652bb167p-24, 0x1.8dabe0d528a21p-9},
};
inline constexpr double kFaultFreeRigDecoded[] = {
    0x1.e6f557e1ea13bp+0, 0x1.05f40496c771cp-2, 0x1.1910d380760fcp+0,
    0x1.1b1a7530cd9ebp-2, 0x1.5e2b96835f0dcp-2, 0x1.49e8832010146p-1,
    0x1.062686eaa24efp+1, 0x1.4718a3484a9c6p-1, -0x1.836d0bf59f2ap-5,
    0x1.3f20760a6b7bp-4, -0x1.0547d687b86cp-2, 0x1.967720d67069cp-2,
    0x1.037ca2b04b1c8p-2, -0x1.5b5115768e3eep-1, -0x1.3e6671a7f0ff7p+0,
    -0x1.3c80ba3dd745ap+0,
};

}  // namespace scec::sim::golden
